// Package stats provides the discrete-distribution substrate used by the
// least-expected-cost (LEC) query optimizer.
//
// The paper models every uncertain run-time parameter — available buffer
// memory, relation sizes, predicate selectivities — as a discrete
// distribution over a small number of "buckets", each bucket summarized by a
// representative value and a probability (paper §3.2, §3.7). This package
// implements those bucketed distributions together with the operations the
// optimizer needs:
//
//   - moments and conditional moments (mean, variance, E[X | X ≤ b]),
//   - prefix tables enabling the linear-time expected-cost algorithms of
//     paper §3.6.1–3.6.2,
//   - products of independent distributions with rebucketing (§3.6.3),
//   - bucketing strategies (uniform, quantile, explicit boundaries) (§3.7),
//   - Markov chains over bucket values for dynamically changing parameters
//     (§3.5),
//   - sampling, for the execution simulator.
//
// All distributions are immutable after construction.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// probEps is the tolerance used when validating that probabilities sum to 1.
const probEps = 1e-9

// ErrEmpty is returned when a distribution is constructed with no support.
var ErrEmpty = errors.New("stats: distribution has empty support")

// Dist is a discrete probability distribution over float64 values.
// Values are kept sorted ascending and are unique; probabilities are
// normalized to sum to 1. The zero value is not usable; construct with
// New, Point, FromSamples, or FromMap.
type Dist struct {
	vals  []float64
	probs []float64
}

// New builds a distribution from parallel slices of values and
// non-negative weights. Duplicate values are merged, weights are
// normalized. It returns an error if the slices mismatch, the support is
// empty, any weight is negative or non-finite, or the total weight is zero.
func New(vals, weights []float64) (*Dist, error) {
	if len(vals) != len(weights) {
		return nil, fmt.Errorf("stats: %d values but %d weights", len(vals), len(weights))
	}
	if len(vals) == 0 {
		return nil, ErrEmpty
	}
	type vw struct{ v, w float64 }
	pairs := make([]vw, 0, len(vals))
	total := 0.0
	for i, v := range vals {
		w := weights[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: non-finite value %v", v)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("stats: bad weight %v for value %v", w, v)
		}
		if w == 0 {
			continue
		}
		pairs = append(pairs, vw{v, w})
		total += w
	}
	if len(pairs) == 0 || total <= 0 {
		return nil, ErrEmpty
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	d := &Dist{
		vals:  make([]float64, 0, len(pairs)),
		probs: make([]float64, 0, len(pairs)),
	}
	for _, p := range pairs {
		n := len(d.vals)
		if n > 0 && d.vals[n-1] == p.v {
			d.probs[n-1] += p.w / total
			continue
		}
		d.vals = append(d.vals, p.v)
		d.probs = append(d.probs, p.w/total)
	}
	return d, nil
}

// FromNormalized builds a distribution from values and probabilities that
// already hold the Dist invariants, keeping every bit as given: the support
// must be finite and strictly ascending, and the probabilities positive and
// summing to 1 within 1e-9. New would renormalize the probabilities, which
// can move one by an ulp; FromNormalized is for rebuilding a distribution
// that crossed a wire or a file, where the copy must be bit-identical to
// the original.
func FromNormalized(vals, probs []float64) (*Dist, error) {
	if len(vals) != len(probs) {
		return nil, fmt.Errorf("stats: %d values but %d probabilities", len(vals), len(probs))
	}
	if len(vals) == 0 {
		return nil, ErrEmpty
	}
	total := 0.0
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: non-finite value %v", v)
		}
		if i > 0 && v <= vals[i-1] {
			return nil, fmt.Errorf("stats: support not strictly ascending at %d", i)
		}
		p := probs[i]
		if !(p > 0) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("stats: bad probability %v for value %v", p, v)
		}
		total += p
	}
	if math.Abs(total-1) > probEps {
		return nil, fmt.Errorf("stats: probabilities sum to %v, not 1", total)
	}
	return &Dist{
		vals:  append([]float64(nil), vals...),
		probs: append([]float64(nil), probs...),
	}, nil
}

// MustNew is like New but panics on error. Intended for fixtures and tests
// where the inputs are literals.
func MustNew(vals, weights []float64) *Dist {
	d, err := New(vals, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Point returns the degenerate distribution concentrated on v. A point
// distribution is how the classical LSC optimizer's single parameter
// estimate is represented: the paper observes that the standard System R
// algorithm is exactly the one-bucket special case of LEC optimization.
func Point(v float64) *Dist {
	return &Dist{vals: []float64{v}, probs: []float64{1}}
}

// FromMap builds a distribution from a value→weight map.
func FromMap(m map[float64]float64) (*Dist, error) {
	vals := make([]float64, 0, len(m))
	weights := make([]float64, 0, len(m))
	for v, w := range m {
		vals = append(vals, v)
		weights = append(weights, w)
	}
	return New(vals, weights)
}

// FromSamples builds an empirical distribution giving each sample equal
// weight. Duplicates merge naturally.
func FromSamples(samples []float64) (*Dist, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	weights := make([]float64, len(samples))
	for i := range weights {
		weights[i] = 1
	}
	return New(samples, weights)
}

// Len returns the number of support points (buckets).
func (d *Dist) Len() int { return len(d.vals) }

// Value returns the i-th support point (ascending order).
func (d *Dist) Value(i int) float64 { return d.vals[i] }

// Prob returns the probability of the i-th support point.
func (d *Dist) Prob(i int) float64 { return d.probs[i] }

// Support returns a copy of the support points in ascending order.
func (d *Dist) Support() []float64 {
	out := make([]float64, len(d.vals))
	copy(out, d.vals)
	return out
}

// Probs returns a copy of the probabilities, parallel to Support.
func (d *Dist) Probs() []float64 {
	out := make([]float64, len(d.probs))
	copy(out, d.probs)
	return out
}

// IsPoint reports whether the distribution is degenerate (one bucket).
func (d *Dist) IsPoint() bool { return len(d.vals) == 1 }

// Min returns the smallest support point.
func (d *Dist) Min() float64 { return d.vals[0] }

// Max returns the largest support point.
func (d *Dist) Max() float64 { return d.vals[len(d.vals)-1] }

// Mean returns E[X].
func (d *Dist) Mean() float64 {
	s := 0.0
	for i, v := range d.vals {
		s += v * d.probs[i]
	}
	return s
}

// Mode returns the most probable support point. Ties break toward the
// smaller value, which makes the result deterministic.
func (d *Dist) Mode() float64 {
	best, bp := d.vals[0], d.probs[0]
	for i := 1; i < len(d.vals); i++ {
		if d.probs[i] > bp {
			best, bp = d.vals[i], d.probs[i]
		}
	}
	return best
}

// Variance returns Var[X] = E[X²] − E[X]².
func (d *Dist) Variance() float64 {
	m := d.Mean()
	s := 0.0
	for i, v := range d.vals {
		dv := v - m
		s += dv * dv * d.probs[i]
	}
	return s
}

// StdDev returns the standard deviation.
func (d *Dist) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Expect returns E[f(X)]. This is the fundamental operation of LEC
// optimization: the expected cost of a plan is Expect applied to the cost
// formula with the other arguments fixed (paper §3.1).
func (d *Dist) Expect(f func(float64) float64) float64 {
	s := 0.0
	for i, v := range d.vals {
		s += f(v) * d.probs[i]
	}
	return s
}

// ExpectVariance returns E[f(X)] and Var[f(X)] in one pass. The variance of
// the cost is the risk metric used by the 2002 follow-up analysis.
func (d *Dist) ExpectVariance(f func(float64) float64) (mean, variance float64) {
	s, s2 := 0.0, 0.0
	for i, v := range d.vals {
		fv := f(v)
		s += fv * d.probs[i]
		s2 += fv * fv * d.probs[i]
	}
	variance = s2 - s*s
	if variance < 0 { // numeric noise
		variance = 0
	}
	return s, variance
}

// PrTail returns Pr[f(X) > t], the threshold-exceedance risk metric.
func (d *Dist) PrTail(f func(float64) float64, t float64) float64 {
	p := 0.0
	for i, v := range d.vals {
		if f(v) > t {
			p += d.probs[i]
		}
	}
	return p
}

// PrLE returns Pr[X ≤ x].
func (d *Dist) PrLE(x float64) float64 {
	p := 0.0
	for i, v := range d.vals {
		if v > x {
			break
		}
		p += d.probs[i]
	}
	return p
}

// PrGE returns Pr[X ≥ x].
func (d *Dist) PrGE(x float64) float64 {
	p := 0.0
	for i := len(d.vals) - 1; i >= 0; i-- {
		if d.vals[i] < x {
			break
		}
		p += d.probs[i]
	}
	return p
}

// PrGT returns Pr[X > x].
func (d *Dist) PrGT(x float64) float64 { return 1 - d.PrLE(x) }

// PrIn returns Pr[lo < X ≤ hi].
func (d *Dist) PrIn(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return d.PrLE(hi) - d.PrLE(lo)
}

// CondExpLE returns E[X | X ≤ b] and Pr[X ≤ b]. If Pr[X ≤ b] is zero the
// conditional expectation is reported as 0. This is the quantity F_b of
// paper §3.6.1.
func (d *Dist) CondExpLE(b float64) (condMean, pr float64) {
	s, p := 0.0, 0.0
	for i, v := range d.vals {
		if v > b {
			break
		}
		s += v * d.probs[i]
		p += d.probs[i]
	}
	if p == 0 {
		return 0, 0
	}
	return s / p, p
}

// CondExpGE returns E[X | X ≥ a] and Pr[X ≥ a] (the quantity G_a of paper
// §3.6.2).
func (d *Dist) CondExpGE(a float64) (condMean, pr float64) {
	s, p := 0.0, 0.0
	for i := len(d.vals) - 1; i >= 0; i-- {
		v := d.vals[i]
		if v < a {
			break
		}
		s += v * d.probs[i]
		p += d.probs[i]
	}
	if p == 0 {
		return 0, 0
	}
	return s / p, p
}

// Map returns the distribution of f(X). Colliding images merge.
func (d *Dist) Map(f func(float64) float64) *Dist {
	vals := make([]float64, len(d.vals))
	for i, v := range d.vals {
		vals[i] = f(v)
	}
	out, err := New(vals, d.probs)
	if err != nil {
		// The input was a valid distribution, so this can only happen if f
		// produced non-finite values; surface it loudly.
		panic(fmt.Sprintf("stats: Map produced invalid distribution: %v", err))
	}
	return out
}

// Scale returns the distribution of c·X.
func (d *Dist) Scale(c float64) *Dist {
	return d.Map(func(v float64) float64 { return c * v })
}

// Shift returns the distribution of X + c.
func (d *Dist) Shift(c float64) *Dist {
	return d.Map(func(v float64) float64 { return v + c })
}

// Mix returns the mixture that takes a value from d with probability w and
// from other with probability 1−w.
func (d *Dist) Mix(other *Dist, w float64) (*Dist, error) {
	if w < 0 || w > 1 || math.IsNaN(w) {
		return nil, fmt.Errorf("stats: mixture weight %v out of [0,1]", w)
	}
	vals := make([]float64, 0, len(d.vals)+other.Len())
	weights := make([]float64, 0, len(d.vals)+other.Len())
	for i, v := range d.vals {
		vals = append(vals, v)
		weights = append(weights, w*d.probs[i])
	}
	for i := 0; i < other.Len(); i++ {
		vals = append(vals, other.Value(i))
		weights = append(weights, (1-w)*other.Prob(i))
	}
	return New(vals, weights)
}

// Quantile returns the smallest support point v with Pr[X ≤ v] ≥ q.
// q is clamped to [0,1].
func (d *Dist) Quantile(q float64) float64 {
	if q <= 0 {
		return d.vals[0]
	}
	if q > 1 {
		q = 1
	}
	acc := 0.0
	for i, p := range d.probs {
		acc += p
		if acc >= q-probEps {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}

// DominatesFOSD reports whether d first-order stochastically dominates
// other: Pr[d ≥ x] ≥ Pr[other ≥ x] for every x (d is "at least as large"
// in distribution). For a memory distribution this means "at least as much
// memory with at least the same probability everywhere", which — because
// all the cost formulas are non-increasing in memory — implies every plan's
// expected cost under d is at most its expected cost under other (see the
// optimizer property tests).
func (d *Dist) DominatesFOSD(other *Dist) bool {
	// Check at every support point of both distributions.
	for i := 0; i < d.Len(); i++ {
		x := d.Value(i)
		if d.PrGE(x)+probEps < other.PrGE(x) {
			return false
		}
	}
	for i := 0; i < other.Len(); i++ {
		x := other.Value(i)
		if d.PrGE(x)+probEps < other.PrGE(x) {
			return false
		}
	}
	return true
}

// Equal reports whether two distributions have identical support and
// probabilities within tol.
func (d *Dist) Equal(other *Dist, tol float64) bool {
	if d.Len() != other.Len() {
		return false
	}
	for i := range d.vals {
		if math.Abs(d.vals[i]-other.vals[i]) > tol ||
			math.Abs(d.probs[i]-other.probs[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the distribution as "{v1:p1, v2:p2, ...}".
func (d *Dist) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range d.vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g:%.4g", v, d.probs[i])
	}
	b.WriteByte('}')
	return b.String()
}

// TotalProb returns the sum of probabilities; it is 1 up to rounding and is
// exposed for invariant checks in tests.
func (d *Dist) TotalProb() float64 {
	s := 0.0
	for _, p := range d.probs {
		s += p
	}
	return s
}

// Validate checks the internal invariants (sorted unique support,
// non-negative probabilities summing to 1). It is used by property tests.
func (d *Dist) Validate() error {
	if len(d.vals) == 0 {
		return ErrEmpty
	}
	if len(d.vals) != len(d.probs) {
		return fmt.Errorf("stats: %d values, %d probs", len(d.vals), len(d.probs))
	}
	for i := range d.vals {
		if i > 0 && d.vals[i] <= d.vals[i-1] {
			return fmt.Errorf("stats: support not strictly ascending at %d", i)
		}
		if d.probs[i] < 0 {
			return fmt.Errorf("stats: negative probability at %d", i)
		}
	}
	if t := d.TotalProb(); math.Abs(t-1) > 1e-6 {
		return fmt.Errorf("stats: probabilities sum to %v", t)
	}
	return nil
}
