package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// combo is one cell of a workload's query mix: a join-graph shape and a
// relation count.
type combo struct {
	topo workload.Topology
	n    int
}

// cells lists every (shape, n) pair for n in [lo, hi].
func cells(lo, hi int, topos ...workload.Topology) []combo {
	var out []combo
	for _, t := range topos {
		for n := lo; n <= hi; n++ {
			out = append(out, combo{t, n})
		}
	}
	return out
}

// spec describes one workload. See README.md for why each was chosen.
type spec struct {
	name string
	// tables is the catalog size; every query draws its relations from it.
	tables int
	// mix is the query mix. The generator walks it in a fresh seeded
	// order per block, so every block of len(mix) queries has the same
	// composition whatever the seed.
	mix []combo
	// opts are the service's search options (lecd's flags -enum, -tier).
	opts lec.Options
	// warm is the number of untimed reads in the warm pass (single-service
	// workloads; fleet-hot warms one pass over its working set).
	warm int

	// Fleet-hot only.
	fleet      bool
	workingSet int     // distinct queries the reads pick from
	zipfS      float64 // Zipf skew of the key choice: P(k) ∝ (zipfV+k)^-zipfS
	zipfV      float64
	writeEvery int // reads between two catalog writes
}

const (
	// One in exactEvery reads of at most exactMaxRels relations gets the
	// exhaustive Theorem 3.3 check.
	exactEvery   = 64
	exactMaxRels = 5
	fleetNodes   = 3
	// writeTable is the table whose size the fleet-hot writes toggle.
	writeTable = "r0"
)

var specs = []*spec{
	{
		name:   "cold-dp",
		tables: 4096,
		mix:    append(cells(3, 10, workload.Chain, workload.Star, workload.RandomTree, workload.Cycle), cells(3, 8, workload.Clique)...),
		opts:   lec.Options{Enumeration: lec.EnumExhaustive, Tier: lec.TierDP},
		warm:   1500,
	},
	{
		name:   "tiered-large",
		tables: 4096,
		// Random trees stop at 12 relations: larger ones are sometimes
		// near-stars whose DP costs ten times a typical one, so the drawn
		// shapes, not the optimizer, would set the p99.
		mix: append(append(cells(8, 16, workload.Chain, workload.Cycle), cells(8, 12, workload.RandomTree)...),
			cells(6, 10, workload.Star, workload.Clique)...),
		opts: lec.Options{Enumeration: lec.EnumConnected, Tier: lec.TierAuto},
		warm: 600,
	},
	{
		name:       "fleet-hot",
		tables:     32,
		mix:        append(cells(3, 7, workload.Chain, workload.Star, workload.RandomTree, workload.Cycle), cells(3, 6, workload.Clique)...),
		opts:       lec.Options{Enumeration: lec.EnumExhaustive, Tier: lec.TierDP},
		fleet:      true,
		workingSet: 384,
		zipfS:      1.1,
		zipfV:      8,
		writeEvery: 1000,
	},
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildCatalog builds the workload's catalog in the given write state:
// tables r0..r{k-1} drawn by workload.RandomCatalog from the seed. Every
// caller gets its own copy, so each fleet node owns its catalog.
func buildCatalog(sp *spec, seed int64, state int) *catalog.Catalog {
	rng := rand.New(rand.NewSource(seed))
	src := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: sp.tables, IndexProb: 0.5})
	cat := catalog.New()
	for i := 0; i < sp.tables; i++ {
		orig := src.MustTable(workload.TableName(i))
		t := *orig
		t.Name = fmt.Sprintf("r%d", i)
		t.Indexes = nil
		for _, ix := range orig.Indexes {
			c := *ix
			c.Name = t.Name + "_" + ix.Column
			t.Indexes = append(t.Indexes, &c)
		}
		cat.MustAdd(&t)
	}
	setState(cat, state)
	return cat
}

// setState puts writeTable at its size for the write state: the generated
// size in state 0, four times its rows and pages in state 1. The id
// column's distinct count is the generated row count, and the writes
// leave it alone.
func setState(cat *catalog.Catalog, state int) {
	t := cat.MustTable(writeTable)
	base := t.Column("id").Distinct
	scale := int64(1 + 3*state)
	t.Pages = t.Pages / float64(t.Rows/base) * float64(scale)
	t.Rows = base * scale
}

// op is one client operation: a read (one optimization request) or, in
// fleet-hot, a catalog write.
type op struct {
	write bool
	// state is the catalog state a write applies, or the state current
	// when a read is served.
	state int
	// q is the query as the client built it; req is its wire form (SQL
	// text plus explicit selectivities, as a fleet peer receives it).
	q   *query.SPJ
	req serve.Request
	// key is the working-set index in fleet-hot, -1 for a distinct query.
	key   int
	entry int  // fleet-hot entry node
	exact bool // run the exhaustive check on this read
}

// stream generates a workload's operations from its seed. The same seed
// always yields the same sequence.
type stream struct {
	sp    *spec
	cat   *catalog.Catalog
	qrng  *rand.Rand // queries
	krng  *rand.Rand // key, entry node and check sampling
	order []int
	pos   int
	made  int // queries generated

	set        []op // fleet-hot working set
	zipf       *rand.Zipf
	sinceWrite int
	state      int
}

func newStream(sp *spec, seed int64) (*stream, error) {
	s := &stream{
		sp:   sp,
		cat:  buildCatalog(sp, seed, 0),
		qrng: rand.New(rand.NewSource(seed*7919 + 1)),
		krng: rand.New(rand.NewSource(seed*7919 + 2)),
	}
	if sp.fleet {
		// Key i is built from cell i of one fixed order of the mix, so
		// the Zipf ranks map to the same shapes and sizes for every seed.
		s.order = rand.New(rand.NewSource(0)).Perm(len(sp.mix))
		for i := 0; i < sp.workingSet; i++ {
			o, err := s.fresh()
			if err != nil {
				return nil, err
			}
			o.key = i
			s.set = append(s.set, o)
			if s.pos == len(s.order) {
				s.pos = 0
			}
		}
		s.zipf = rand.NewZipf(s.krng, sp.zipfS, sp.zipfV, uint64(sp.workingSet-1))
	}
	return s, nil
}

// warmOps is the untimed warm pass: a prefix of the same generator, or in
// fleet-hot one pass over the working set with the entry node rotating.
func (s *stream) warmOps() ([]op, error) {
	if s.sp.fleet {
		out := make([]op, len(s.set))
		for i, o := range s.set {
			o.entry = i % fleetNodes
			out[i] = o
		}
		return out, nil
	}
	out := make([]op, s.sp.warm)
	for i := range out {
		o, err := s.next()
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// next returns the next timed operation.
func (s *stream) next() (op, error) {
	if !s.sp.fleet {
		return s.fresh()
	}
	if s.sinceWrite == s.sp.writeEvery {
		s.sinceWrite = 0
		s.state = 1 - s.state
		return op{write: true, state: s.state, key: -1}, nil
	}
	s.sinceWrite++
	o := s.set[s.zipf.Uint64()]
	o.entry = s.krng.Intn(fleetNodes)
	o.state = s.state
	return o, nil
}

// fresh generates one distinct query from the next cell of the mix.
func (s *stream) fresh() (op, error) {
	if s.pos >= len(s.order) {
		s.order = s.qrng.Perm(len(s.sp.mix))
		s.pos = 0
	}
	c := s.sp.mix[s.order[s.pos]]
	s.pos++
	q, err := s.query(c)
	if err != nil {
		return op{}, err
	}
	dm, err := s.memDist(2 + s.made%11)
	if err != nil {
		return op{}, err
	}
	s.made++
	o := op{q: q, key: -1, req: wireRequest(q, dm)}
	o.exact = c.n <= exactMaxRels && s.krng.Intn(exactEvery) == 0
	return o, nil
}

// query draws c.n distinct tables and builds a c.topo query over them with
// workload.RandomQuery. The query's range names are t0..t{n-1}, aliasing
// the drawn base tables.
func (s *stream) query(c combo) (*query.SPJ, error) {
	perm := s.pick(c.n)
	sub := catalog.New()
	for i, ti := range perm {
		t := *s.cat.MustTable(fmt.Sprintf("r%d", ti))
		t.Name = workload.TableName(i)
		sub.MustAdd(&t)
	}
	q, err := workload.RandomQuery(s.qrng, sub, workload.QuerySpec{
		NumRels:       c.n,
		Shape:         c.topo,
		OrderBy:       s.qrng.Float64() < 0.3,
		SelectionProb: 0.25,
	})
	if err != nil {
		return nil, err
	}
	q.Aliases = make(map[string]string, c.n)
	for i, ti := range perm {
		q.Aliases[workload.TableName(i)] = fmt.Sprintf("r%d", ti)
	}
	if err := q.Validate(s.cat); err != nil {
		return nil, err
	}
	return q, nil
}

// pick draws n distinct table indexes.
func (s *stream) pick(n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		i := s.qrng.Intn(s.sp.tables)
		if !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	return out
}

// memDist draws a lognormal memory distribution of b buckets: mean
// log-uniform in [50, 5000] pages, coefficient of variation in [0.3, 1.2].
// The bucket count cycles through 2–12 with the query count, so it is the
// same for every seed.
func (s *stream) memDist(b int) (*stats.Dist, error) {
	mean := math.Exp(math.Log(50) + s.qrng.Float64()*(math.Log(5000)-math.Log(50)))
	cv := 0.3 + 0.9*s.qrng.Float64()
	return workload.LognormalMemDist(mean, cv, b)
}

// wireRequest renders a query the way a fleet peer receives it: canonical
// SQL text plus its explicit selectivities.
func wireRequest(q *query.SPJ, dm *stats.Dist) serve.Request {
	req := serve.Request{
		SQL:      q.String(),
		Env:      lec.Environment{Memory: dm},
		Strategy: lec.AlgorithmC,
	}
	for _, j := range q.Joins {
		req.JoinSels = append(req.JoinSels, j.Selectivity)
	}
	for _, sel := range q.Selections {
		req.SelectionSels = append(req.SelectionSels, sel.Selectivity)
	}
	return req
}
