package opt

import (
	"math"

	"repro/internal/query"
	"repro/internal/stats"
)

// The per-subset memo tables are on the DP's hot path: every join step asks
// for the pages/rows of its operand subsets. Their representation is driven
// by the enumerator's predicted subset count (memoSizing, enum.go): when
// the effective enumeration will touch a large fraction of the 2^n lattice,
// a dense slice indexed by the RelSet bitmask beats a hash table — no
// hashing, no bucket growth; when the enumerator predicts a sparse lattice
// (connected enumeration over a large sparse join graph, or n past
// denseMemoMaxRels), an open-addressed sparseTab keyed by RelSet keeps the
// footprint proportional to the subsets actually touched — an n=30 chain
// allocates hundreds of entries, not 2^30. Either way the backing storage
// is allocated lazily on first put, so a Context built for inspection
// (breakpoint analysis, admission control) costs nothing.

// floatMemo memoizes a float64 per relation subset. Dense entries use NaN
// as the "unset" sentinel — no legitimate subset statistic is NaN.
//
// probe marks a pre-DP phase — the greedy planning tier — that touches only
// O(n²) subsets: NaN-filling a dense 2^n table for it would cost orders of
// magnitude more than the phase itself (16 MB of memclr at n=20 against a
// sub-100µs latency budget). While probe is set, the lazy first allocation
// falls back to a small sparse table regardless of the sizing verdict;
// settle migrates those entries into the dense layout if the DP then runs.
type floatMemo struct {
	sz     memoSizing
	probe  bool
	dense  []float64
	sparse *sparseTab[float64]
	spare  []float64 // recycled dense backing (see session.go), or nil
}

// newDense returns a NaN-filled dense table, reusing the recycled backing
// when it is large enough.
func (fm *floatMemo) newDense() []float64 {
	size := 1 << uint(fm.sz.n)
	d := fm.spare
	fm.spare = nil
	if cap(d) < size {
		d = make([]float64, size)
	}
	d = d[:size]
	for i := range d {
		d[i] = math.NaN()
	}
	return d
}

// backing returns the dense storage the memo holds, used or spare, for
// recycling.
func (fm *floatMemo) backing() []float64 {
	if fm.dense != nil {
		return fm.dense
	}
	return fm.spare
}

func newFloatMemo(sz memoSizing) *floatMemo { return &floatMemo{sz: sz} }

// settle ends probe mode. If the probe forced a sparse table where the
// sizing wants dense, the entries migrate so the DP still gets its
// hash-free lookups; the one-time fill cost is amortized by the full
// lattice sweep that follows.
func (fm *floatMemo) settle() {
	fm.probe = false
	if fm.sparse == nil || !fm.sz.dense {
		return
	}
	d := fm.newDense()
	for i, k := range fm.sparse.keys {
		if k != 0 {
			d[k-1] = fm.sparse.vals[i]
		}
	}
	fm.dense, fm.sparse = d, nil
}

func (fm *floatMemo) get(s query.RelSet) (float64, bool) {
	if fm.dense != nil {
		v := fm.dense[s]
		return v, !math.IsNaN(v)
	}
	if fm.sparse != nil {
		return fm.sparse.get(s)
	}
	return 0, false
}

func (fm *floatMemo) put(s query.RelSet, v float64) {
	if fm.dense == nil && fm.sparse == nil {
		switch {
		case fm.probe:
			fm.sparse = newSparseTab[float64](fm.sz.n * fm.sz.n)
		case fm.sz.dense:
			fm.dense = fm.newDense()
		default:
			fm.sparse = newSparseTab[float64](fm.sz.predict)
		}
	}
	if fm.dense != nil {
		fm.dense[s] = v
		return
	}
	fm.sparse.put(s, v)
}

// distMemo memoizes a distribution per relation subset (nil = unset).
type distMemo struct {
	sz     memoSizing
	dense  []*stats.Dist
	sparse *sparseTab[*stats.Dist]
}

func newDistMemo(sz memoSizing) *distMemo { return &distMemo{sz: sz} }

func (dm *distMemo) get(s query.RelSet) (*stats.Dist, bool) {
	if dm.dense != nil {
		d := dm.dense[s]
		return d, d != nil
	}
	if dm.sparse != nil {
		d, ok := dm.sparse.get(s)
		return d, ok && d != nil
	}
	return nil, false
}

func (dm *distMemo) put(s query.RelSet, d *stats.Dist) {
	if dm.dense == nil && dm.sparse == nil {
		if dm.sz.dense {
			dm.dense = make([]*stats.Dist, 1<<uint(dm.sz.n))
		} else {
			dm.sparse = newSparseTab[*stats.Dist](dm.sz.predict)
		}
	}
	if dm.dense != nil {
		dm.dense[s] = d
		return
	}
	dm.sparse.put(s, d)
}
