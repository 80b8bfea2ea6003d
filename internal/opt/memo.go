package opt

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/query"
)

// The per-subset tables are on the DP's hot path: every join step asks for
// the pages/rows of its operand subsets, and every lattice node reads and
// writes its DP entry. One type, subsetTab, holds all of them and picks its
// own layout from the relation count and from how many entries it holds:
//
//   - n ≤ denseSmallMaxRels: a dense slice indexed by the RelSet bitmask on
//     first write. 2^12 entries is at most a few hundred KiB, cheaper than
//     any hashing.
//   - denseSmallMaxRels < n ≤ denseMemoMaxRels: an open-addressed sparseTab
//     on first write, sized for a chain's n(n+1)/2 connected subsets, that
//     moves once to the dense layout when it holds 2^n/8 entries. Connected
//     enumeration over a sparse join graph, and the greedy tier's O(n²)
//     probe, never get there; an exhaustive or dense-graph DP does early in
//     its sweep and then runs hash-free.
//   - n > denseMemoMaxRels: always sparse. A 2^n array would dwarf the
//     working set; an n=30 chain touches 465 subsets of a 2^30 space.
//
// Nothing is allocated before the first write, so a Context built for
// inspection (breakpoint analysis, admission control) costs nothing.
const (
	// denseSmallMaxRels always gets dense tables.
	denseSmallMaxRels = 12
	// denseMemoMaxRels is the largest relation count a table turns dense at.
	denseMemoMaxRels = 20
)

// subsetTab holds one V per relation subset of an n-relation query. An
// absent subset reads as unset: NaN in the subset-size memos (no subset
// statistic is NaN), the zero value everywhere else. The zero subsetTab is
// usable once reset gives it n.
type subsetTab[V any] struct {
	n       int
	unset   V
	fill    bool // unset is not V's zero value, so dense backings are filled
	denseAt int  // sparse entries at which the table moves to dense
	dense   []V
	sparse  *sparseTab[V]
	spare   []V // recycled dense backing (see session.go), or nil
}

// nanTab returns an empty float table in which absent subsets read as NaN.
func nanTab(n int) *subsetTab[float64] {
	return &subsetTab[float64]{n: n, unset: math.NaN(), fill: true}
}

func (t *subsetTab[V]) get(s query.RelSet) V {
	if t.dense != nil {
		return t.dense[s]
	}
	return t.getSparse(s)
}

// getSparse is get's sparse path, split off so the dense path inlines.
func (t *subsetTab[V]) getSparse(s query.RelSet) V {
	if t.sparse != nil {
		if v, ok := t.sparse.get(s); ok {
			return v
		}
	}
	return t.unset
}

func (t *subsetTab[V]) put(s query.RelSet, v V) {
	if t.dense != nil {
		t.dense[s] = v
		return
	}
	*t.ref(s) = v
}

// ref returns a pointer to s's value, inserting unset first if absent. The
// pointer is invalidated by the next write (growth or the move to dense),
// so callers must not retain it.
func (t *subsetTab[V]) ref(s query.RelSet) *V {
	if t.dense == nil && t.sparse == nil {
		t.alloc()
	}
	if t.dense != nil {
		return &t.dense[s]
	}
	p, added := t.sparse.ref(s)
	if !added {
		return p
	}
	if t.fill {
		*p = t.unset
	}
	if t.sparse.used >= t.denseAt {
		t.promote()
		return &t.dense[s]
	}
	return p
}

// alloc lays out the table at its first write.
func (t *subsetTab[V]) alloc() {
	switch {
	case t.n <= denseSmallMaxRels:
		t.dense = t.newDense()
		return
	case t.n <= denseMemoMaxRels:
		t.denseAt = 1 << uint(t.n) / 8
	default:
		t.denseAt = math.MaxInt
	}
	t.sparse = newSparseTab[V](t.n * (t.n + 1) / 2)
}

// promote moves the sparse entries into a dense backing.
func (t *subsetTab[V]) promote() {
	d := t.newDense()
	for i, k := range t.sparse.keys {
		if k != 0 {
			d[k-1] = t.sparse.vals[i]
		}
	}
	t.dense, t.sparse = d, nil
}

// newDense returns a 2^n backing of unset entries, reusing the spare one
// when it is large enough.
func (t *subsetTab[V]) newDense() []V {
	size := 1 << uint(t.n)
	d := t.spare
	t.spare = nil
	if cap(d) < size {
		d = make([]V, size)
		if !t.fill {
			return d
		}
	}
	d = d[:size]
	t.blank(d)
	return d
}

// blank sets every entry of d to unset.
func (t *subsetTab[V]) blank(d []V) {
	if !t.fill {
		clear(d)
		return
	}
	for i := range d {
		d[i] = t.unset
	}
}

// reset empties the table for a run over n relations, keeping its layout
// and backing: a table that went dense in one run of a session starts the
// next one dense.
func (t *subsetTab[V]) reset(n int) {
	t.n = n
	switch {
	case t.dense != nil:
		t.blank(t.dense)
	case t.sparse != nil:
		t.sparse.reset()
	}
}

// backing returns the dense storage the table holds, in use or spare, for
// the session pool to recycle.
func (t *subsetTab[V]) backing() []V {
	if t.dense != nil {
		return t.dense
	}
	return t.spare
}

// ascendingSum adds t's entries in ascending subset order, so the total
// does not depend on the order they were written in. Absent entries must
// read as zero.
func ascendingSum(t *subsetTab[float64]) float64 {
	sum := 0.0
	if t.dense != nil {
		for _, v := range t.dense {
			sum += v
		}
		return sum
	}
	if t.sparse != nil {
		for _, k := range t.sparse.keysSorted() {
			v, _ := t.sparse.get(k)
			sum += v
		}
	}
	return sum
}

// sparseTab is an open-addressed hash table keyed by RelSet, subsetTab's
// sparse layout. Keys are stored +1 so the zero slot means empty;
// Fibonacci multiplicative hashing spreads the clustered bitmask keys;
// load is kept at most 1/2 by doubling. The DP's misses (S\{j} outside
// the connected family) probe to an empty slot, and under linear probing
// their cost climbs steeply past half load.
type sparseTab[V any] struct {
	keys  []uint32 // key+1; 0 marks an empty slot
	vals  []V
	used  int
	shift uint
}

// newSparseTab returns a table pre-sized for about `hint` entries.
func newSparseTab[V any](hint int) *sparseTab[V] {
	slots := 16
	for slots < hint*2 && slots < 1<<16 {
		slots <<= 1
	}
	t := &sparseTab[V]{}
	t.init(slots)
	return t
}

func (t *sparseTab[V]) init(slots int) {
	t.keys = make([]uint32, slots)
	t.vals = make([]V, slots)
	t.used = 0
	t.shift = uint(32 - bits.TrailingZeros(uint(slots)))
}

// reset empties the table, keeping its slots.
func (t *sparseTab[V]) reset() {
	clear(t.keys)
	clear(t.vals)
	t.used = 0
}

func (t *sparseTab[V]) slot(k query.RelSet) int {
	return int((uint32(k) + 1) * 2654435769 >> t.shift)
}

func (t *sparseTab[V]) get(k query.RelSet) (V, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		kk := t.keys[i]
		if kk == 0 {
			var zero V
			return zero, false
		}
		if kk == uint32(k)+1 {
			return t.vals[i], true
		}
	}
}

// ref returns a pointer to k's value slot and whether k was absent, in
// which case the slot holds the zero value. The pointer is invalidated by
// the next insertion (growth may rehash), so callers must not retain it.
func (t *sparseTab[V]) ref(k query.RelSet) (*V, bool) {
	if (t.used+1)*2 > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		kk := t.keys[i]
		if kk == uint32(k)+1 {
			return &t.vals[i], false
		}
		if kk == 0 {
			t.keys[i] = uint32(k) + 1
			t.used++
			return &t.vals[i], true
		}
	}
}

func (t *sparseTab[V]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	mask := len(t.keys) - 1
	for i, kk := range oldKeys {
		if kk == 0 {
			continue
		}
		j := t.slot(query.RelSet(kk - 1))
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j] = kk
		t.vals[j] = oldVals[i]
		t.used++
	}
}

// keysSorted returns the stored keys in ascending order, for ascendingSum.
func (t *sparseTab[V]) keysSorted() []query.RelSet {
	out := make([]query.RelSet, 0, t.used)
	for _, kk := range t.keys {
		if kk != 0 {
			out = append(out, query.RelSet(kk-1))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
