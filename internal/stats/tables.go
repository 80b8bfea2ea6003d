package stats

import "sort"

// PrefixTable precomputes cumulative probabilities and cumulative partial
// expectations for a distribution, so that Pr[X ≤ b], Pr[X ≥ a],
// E[X | X ≤ b] and E[X | X ≥ a] can each be answered in O(log n) by binary
// search — or in O(1) amortized via a Sweeper when the queries arrive in
// sorted order, which is exactly the access pattern of the linear-time
// expected-cost algorithms in paper §3.6.1–3.6.2 ("we can compute all of
// these probabilities in time O(b_A + b_B) because we need only go through
// each set of buckets once").
type PrefixTable struct {
	d *Dist
	// cumP[i]  = Pr[X ≤ vals[i]]
	// cumVP[i] = Σ_{j≤i} vals[j]·probs[j]
	cumP  []float64
	cumVP []float64
}

// NewPrefixTable builds the table in O(n).
func NewPrefixTable(d *Dist) *PrefixTable {
	n := d.Len()
	t := &PrefixTable{
		d:     d,
		cumP:  make([]float64, n),
		cumVP: make([]float64, n),
	}
	accP, accVP := 0.0, 0.0
	for i := 0; i < n; i++ {
		accP += d.Prob(i)
		accVP += d.Value(i) * d.Prob(i)
		t.cumP[i] = accP
		t.cumVP[i] = accVP
	}
	return t
}

// Dist returns the underlying distribution.
func (t *PrefixTable) Dist() *Dist { return t.d }

// idxLE returns the largest index i with vals[i] ≤ b, or −1.
func (t *PrefixTable) idxLE(b float64) int {
	return sort.Search(t.d.Len(), func(i int) bool { return t.d.Value(i) > b }) - 1
}

// PrLE returns Pr[X ≤ b] in O(log n).
func (t *PrefixTable) PrLE(b float64) float64 {
	i := t.idxLE(b)
	if i < 0 {
		return 0
	}
	return t.cumP[i]
}

// PrGE returns Pr[X ≥ a] in O(log n).
func (t *PrefixTable) PrGE(a float64) float64 {
	// Pr[X ≥ a] = 1 − Pr[X < a] = 1 − Pr[X ≤ pred(a)].
	i := sort.Search(t.d.Len(), func(i int) bool { return t.d.Value(i) >= a })
	if i == 0 {
		return 1
	}
	return 1 - t.cumP[i-1]
}

// PrGT returns Pr[X > b] in O(log n).
func (t *PrefixTable) PrGT(b float64) float64 { return 1 - t.PrLE(b) }

// PrLT returns Pr[X < a] in O(log n).
func (t *PrefixTable) PrLT(a float64) float64 {
	i := sort.Search(t.d.Len(), func(i int) bool { return t.d.Value(i) >= a })
	if i == 0 {
		return 0
	}
	return t.cumP[i-1]
}

// PartialExpLT returns Σ_{v < a} v·Pr[X = v].
func (t *PrefixTable) PartialExpLT(a float64) float64 {
	i := sort.Search(t.d.Len(), func(i int) bool { return t.d.Value(i) >= a })
	if i == 0 {
		return 0
	}
	return t.cumVP[i-1]
}

// Mean returns E[X] from the precomputed table.
func (t *PrefixTable) Mean() float64 { return t.cumVP[t.d.Len()-1] }

// PartialExpLE returns Σ_{v ≤ b} v·Pr[X = v] (the unnormalized conditional
// expectation used directly by the fast sort-merge formula).
func (t *PrefixTable) PartialExpLE(b float64) float64 {
	i := t.idxLE(b)
	if i < 0 {
		return 0
	}
	return t.cumVP[i]
}

// PartialExpGE returns Σ_{v ≥ a} v·Pr[X = v].
func (t *PrefixTable) PartialExpGE(a float64) float64 {
	i := sort.Search(t.d.Len(), func(i int) bool { return t.d.Value(i) >= a })
	if i == 0 {
		return t.cumVP[t.d.Len()-1]
	}
	return t.cumVP[t.d.Len()-1] - t.cumVP[i-1]
}

// CondExpLE returns (E[X | X ≤ b], Pr[X ≤ b]).
func (t *PrefixTable) CondExpLE(b float64) (float64, float64) {
	p := t.PrLE(b)
	if p == 0 {
		return 0, 0
	}
	return t.PartialExpLE(b) / p, p
}

// CondExpGE returns (E[X | X ≥ a], Pr[X ≥ a]).
func (t *PrefixTable) CondExpGE(a float64) (float64, float64) {
	p := t.PrGE(a)
	if p == 0 {
		return 0, 0
	}
	return t.PartialExpGE(a) / p, p
}

// Sweeper answers the same queries as PrefixTable in amortized O(1) per
// query, provided the query thresholds arrive in non-decreasing order. It is
// the mechanism behind the "go through each set of buckets once" claim of
// the paper: sweeping the buckets of |B| against the buckets of |A| costs
// O(b_A + b_B) in total.
type Sweeper struct {
	t      *PrefixTable
	pos    int     // number of support points consumed
	last   float64 // last threshold seen, for order validation
	init   bool
	strict bool // whether the previous query was strict (<) rather than ≤
}

// NewSweeper starts a sweep over d's prefix table.
func NewSweeper(t *PrefixTable) *Sweeper {
	return &Sweeper{t: t, pos: 0}
}

// advance moves pos forward so that it counts exactly the support points ≤ b
// (strict = false) or < b (strict = true).
func (s *Sweeper) advance(b float64, strict bool) {
	if s.init && (b < s.last || (b == s.last && strict && !s.strict)) {
		// Out-of-order query (or a tightening from ≤ to < at the same
		// threshold): restart the sweep. Correctness is preserved; only the
		// amortized bound is lost.
		s.pos = 0
	}
	s.last, s.init, s.strict = b, true, strict
	d := s.t.d
	for s.pos < d.Len() && (d.Value(s.pos) < b || (!strict && d.Value(s.pos) == b)) {
		s.pos++
	}
}

// PrLE returns Pr[X ≤ b]; thresholds should be non-decreasing across calls.
func (s *Sweeper) PrLE(b float64) float64 {
	s.advance(b, false)
	if s.pos == 0 {
		return 0
	}
	return s.t.cumP[s.pos-1]
}

// PrLT returns Pr[X < b] under the same sweep contract.
func (s *Sweeper) PrLT(b float64) float64 {
	s.advance(b, true)
	if s.pos == 0 {
		return 0
	}
	return s.t.cumP[s.pos-1]
}

// PartialExpLE returns Σ_{v ≤ b} v·Pr[X = v] under the same sweep contract.
func (s *Sweeper) PartialExpLE(b float64) float64 {
	s.advance(b, false)
	if s.pos == 0 {
		return 0
	}
	return s.t.cumVP[s.pos-1]
}

// PartialExpLT returns Σ_{v < b} v·Pr[X = v] under the same sweep contract.
func (s *Sweeper) PartialExpLT(b float64) float64 {
	s.advance(b, true)
	if s.pos == 0 {
		return 0
	}
	return s.t.cumVP[s.pos-1]
}

// CondExpLE returns (E[X | X ≤ b], Pr[X ≤ b]) under the sweep contract.
func (s *Sweeper) CondExpLE(b float64) (float64, float64) {
	p := s.PrLE(b)
	if p == 0 {
		return 0, 0
	}
	return s.t.cumVP[s.pos-1] / p, p
}
