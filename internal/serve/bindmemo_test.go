package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/workload"
	"repro/lec"
)

// freshCanonical is the reference the bind memo must agree with: a fresh
// parse and bind, the selectivity overrides applied by hand, and the
// request key of the result. errClass is "" on success.
func freshCanonical(req Request, cat *catalog.Catalog) (key, canon, errClass string) {
	q, err := sqlparse.ParseAndBind(req.SQL, cat)
	if err != nil {
		return "", "", errClassOf(classify(err))
	}
	if len(req.JoinSels) > 0 {
		if len(req.JoinSels) != len(q.Joins) {
			return "", "", errClassOf(lec.ErrInvalidQuery)
		}
		for i := range q.Joins {
			q.Joins[i].Selectivity = req.JoinSels[i]
		}
	}
	if len(req.SelectionSels) > 0 {
		if len(req.SelectionSels) != len(q.Selections) {
			return "", "", errClassOf(lec.ErrInvalidQuery)
		}
		for i := range q.Selections {
			q.Selections[i].Selectivity = req.SelectionSels[i]
		}
	}
	canon = q.String()
	return requestKey(q, canon, req.Strategy, req.Env), canon, ""
}

func errClassOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, lec.ErrUnknownRelation):
		return "unknown-relation"
	case errors.Is(err, lec.ErrInvalidQuery):
		return "invalid-query"
	default:
		return "other: " + err.Error()
	}
}

// memoGroup is how many requests memoRequests derives from one query.
const memoGroup = 12

// memoRequests draws seeded requests over cat: random queries as canonical
// SQL and as a textual variant, each with catalog-derived and with explicit
// selectivities, plus wrong-length overrides and unknown tables and columns.
func memoRequests(rng *rand.Rand, cat *catalog.Catalog, n int) []Request {
	shapes := workload.Topologies()
	var reqs []Request
	for len(reqs) < n {
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
			NumRels:       2 + rng.Intn(5),
			Shape:         shapes[rng.Intn(len(shapes))],
			SelectionProb: 0.5,
		})
		if err != nil {
			panic(err)
		}
		sql := q.String()
		variant := strings.ToLower(strings.ReplaceAll(sql, " AND ", "  and\n "))
		// Two draws of each override list, equal in length and differing in
		// every value.
		var js, js2, ss, ss2 []float64
		for range q.Joins {
			js, js2 = append(js, rng.Float64()), append(js2, rng.Float64())
		}
		for range q.Selections {
			ss, ss2 = append(ss, rng.Float64()), append(ss2, rng.Float64())
		}
		env := env()
		reqs = append(reqs,
			Request{SQL: sql, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: variant, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: sql, JoinSels: js, SelectionSels: ss, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: variant, JoinSels: js, Env: env, Strategy: lec.AlgorithmB},
			Request{SQL: sql, SelectionSels: ss, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: sql, SelectionSels: ss2, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: sql, JoinSels: js2, SelectionSels: ss, Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: sql, JoinSels: append(js, 0.5), Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: sql, SelectionSels: append(ss, 0.5), Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: strings.Replace(sql, "t0", "t999", 1), Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: strings.Replace(sql, ".id", ".nosuch", 1), Env: env, Strategy: lec.AlgorithmC},
			Request{SQL: "SELECT * FROM", Env: env, Strategy: lec.AlgorithmC},
		)
	}
	return reqs
}

// TestBindMemoMatchesFreshBind is the bind memo's differential test: for
// every request, the first call (a miss) and every repeat (a hit) return
// the key, canonical text and error class of a fresh bind; a hit returns
// the memoized query itself; the memo never outgrows CacheCapacity; and
// after a catalog update the catalog-derived key follows the new catalog
// instead of a remembered binding.
func TestBindMemoMatchesFreshBind(t *testing.T) {
	const capacity = 24
	rng := rand.New(rand.NewSource(7))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 8})
	svc := New(cat, Config{Workers: 2, CacheCapacity: capacity})
	reqs := memoRequests(rng, cat, 360)

	check := func(phase string, i int, req Request) *query.SPJ {
		t.Helper()
		var wantKey, wantCanon, wantErr string
		svc.ViewCatalog(func(c *catalog.Catalog) { wantKey, wantCanon, wantErr = freshCanonical(req, c) })
		bound, key, err := svc.Canonicalize(req)
		if got := errClassOf(err); got != wantErr {
			t.Fatalf("%s request %d (%q): error class %q, fresh bind says %q", phase, i, req.SQL, got, wantErr)
		}
		svc.binds.mu.RLock()
		n := len(svc.binds.m)
		svc.binds.mu.RUnlock()
		if n > capacity {
			t.Fatalf("%s request %d: bind memo holds %d entries, capacity %d", phase, i, n, capacity)
		}
		if err != nil {
			return nil
		}
		if key != wantKey {
			t.Fatalf("%s request %d: key %q, fresh bind %q", phase, i, key, wantKey)
		}
		if bound.canon != wantCanon || bound.canonOf != bound.Query || bound.Query.String() != wantCanon {
			t.Fatalf("%s request %d: carried canonical text %q, fresh bind %q", phase, i, bound.canon, wantCanon)
		}
		return bound.Query
	}

	bound := 0
	for i, req := range reqs {
		first := check("miss", i, req)
		if first != nil {
			bound++
		}
		for r := 0; r < 2; r++ {
			if again := check("hit", i, req); again != first {
				t.Fatalf("request %d: repeat bound a new query; want the memoized one", i)
			}
		}
		if i%memoGroup == 1 {
			// The textual variant shares the canonical request's key.
			_, kCanon, err1 := svc.Canonicalize(reqs[i-1])
			_, kVariant, err2 := svc.Canonicalize(req)
			if err1 != nil || err2 != nil || kCanon != kVariant {
				t.Fatalf("request %d: variant key %q (%v), canonical key %q (%v)", i, kVariant, err2, kCanon, err1)
			}
		}
	}
	if bound <= 2*capacity {
		t.Fatalf("only %d successful binds; the capacity bound is not exercised", bound)
	}

	// A statistics update: t0.id (joined by every chain and star above)
	// gets twice the distinct values.
	req := Request{SQL: "SELECT * FROM t0, t1 WHERE t0.id = t1.fk", Env: env(), Strategy: lec.AlgorithmC}
	before, oldKey, err := svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := svc.Generation()
	if err := svc.UpdateCatalog(func(c *catalog.Catalog) error {
		c.MustTable("t0").Column("id").Distinct *= 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := check("post-update", 0, req)
	_, newKey, _ := svc.Canonicalize(req)
	if newKey == oldKey || after == before.Query {
		t.Fatalf("after the update the catalog-derived key stayed %q; a generation-%d binding was served", oldKey, genBefore)
	}
	svc.binds.mu.RLock()
	for k, e := range svc.binds.m {
		if e.gen < svc.Generation() {
			t.Errorf("memo kept an entry of generation %d after the update to %d: %q", e.gen, svc.Generation(), k)
		}
	}
	svc.binds.mu.RUnlock()

	// A binder that read the old generation can store its entry after the
	// purge; the entry must still never be served at the new generation.
	svc.binds.put(req.SQL, appendOverrides(nil, req), boundQuery{gen: genBefore, q: before.Query, canon: before.canon})
	if again := check("stale-entry", 0, req); again == before.Query {
		t.Fatalf("a generation-%d binding was served at generation %d", genBefore, svc.Generation())
	}
}

// TestBindMemoFailedUpdateKeepsGeneration pins the documented no-bump rule:
// a mutation that returns an error changes neither the generation nor the
// memoized bindings.
func TestBindMemoFailedUpdateKeepsGeneration(t *testing.T) {
	svc := New(multiTableCatalog(2), Config{Workers: 2})
	req := Request{SQL: pairQuery(0, 1), Env: env(), Strategy: lec.AlgorithmC}
	first, _, err := svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	gen := svc.Generation()
	boom := errors.New("boom")
	if err := svc.UpdateCatalog(func(*catalog.Catalog) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("UpdateCatalog error = %v, want boom", err)
	}
	if svc.Generation() != gen {
		t.Fatalf("a failed mutation moved the generation %d -> %d", gen, svc.Generation())
	}
	again, _, _ := svc.Canonicalize(req)
	if again.Query != first.Query {
		t.Fatal("a failed mutation dropped the memoized binding")
	}
}

// TestUpdateCatalogBumpsUnderWriteLock checks that the generation and the
// catalog agree whenever the catalog read lock is held — the property the
// bind memo's generation scope rests on. A writer alternates t1.k's
// distinct count with the parity of the generation it creates while
// readers spin on the read lock, so a reader that slips in between the
// write lock's release and a late bump sees the new catalog under the old
// generation. Other readers bind through the memo with unique selection
// overrides (every one a fresh, catalog-derived join selectivity), and
// every remembered binding must match its generation's catalog.
func TestUpdateCatalogBumpsUnderWriteLock(t *testing.T) {
	cat := multiTableCatalog(2)
	distinct := func(gen uint64) int64 { return 150_000 + int64(gen%2)*50_000 }
	wantSel := func(gen uint64) float64 { return 1 / float64(distinct(gen)) }
	cat.MustTable("t1").Column("k").Distinct = distinct(0)
	svc := New(cat, Config{Workers: 2})
	sql := pairQuery(0, 1) + " AND t0.k < 50"

	var stop atomic.Bool
	var bad atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if !svc.catMu.TryRLock() {
					continue
				}
				gen, d := svc.gen.Load(), svc.cat.MustTable("t1").Column("k").Distinct
				svc.catMu.RUnlock()
				if d != distinct(gen) {
					bad.Store(fmt.Sprintf("generation %d read with the catalog of generation %d", gen, gen+1))
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				req := Request{SQL: sql, SelectionSels: []float64{float64(r*1_000_000+i+1) / 1e7}, Env: env(), Strategy: lec.AlgorithmC}
				if _, _, err := svc.Canonicalize(req); err != nil {
					bad.Store(err.Error())
					return
				}
			}
		}(r)
	}
	for i := 0; i < 5000 && bad.Load() == nil; i++ {
		if err := svc.UpdateCatalog(func(c *catalog.Catalog) error {
			c.MustTable("t1").Column("k").Distinct = distinct(svc.Generation() + 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	svc.binds.mu.RLock()
	defer svc.binds.mu.RUnlock()
	for _, e := range svc.binds.m {
		if got := e.q.Joins[0].Selectivity; got != wantSel(e.gen) {
			t.Fatalf("memo entry of generation %d bound join selectivity %g, want %g", e.gen, got, wantSel(e.gen))
		}
	}
}
