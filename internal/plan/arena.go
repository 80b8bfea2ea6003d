package plan

import (
	"unsafe"

	"repro/internal/cost"
	"repro/internal/query"
)

// Arena interns plan nodes for one optimizer session. The dynamic programs
// construct the same join candidate many times — once per lattice subset it
// could extend, per costing pass, and (for Algorithms A/B) once per memory
// bucket. Because a node's estimates depend only on its inputs and join
// method, two candidates with the same (left, right, method) are
// interchangeable; the arena hands back the canonical node instead of
// allocating a duplicate.
//
// Inputs are required to be interned themselves (the optimizer's scans are
// per-relation singletons), so identity of the children doubles as
// structural identity. Each node the arena touches is assigned a small
// sequential id, and a candidate's signature packs (left id, right id,
// method) into one uint64 — probed through an open-addressed table rather
// than a runtime map, because the DP constructs thousands of candidates per
// run and the map's per-entry buckets dominated the allocation profile.
// Join nodes themselves, and the predicate lists the optimizer attaches to
// them, are carved out of fixed-size slabs for the same reason.
//
// The arena keeps every slab it carved, so Reset can rewind it for another
// session without giving the memory back: a caller that has copied out the
// nodes it wants to keep (see Detach) recycles the tables and slabs instead
// of reallocating them for the next query.
type Arena struct {
	table []arenaSlot // open-addressed, power-of-two length
	count int         // interned joins
	shift uint        // 64 - log2(len(table)); hash uses the top bits
	hits  int

	nextID uint32 // last assigned node id (ids start at 1)
	joins  slabs[Join]

	sortTable []sortSlot // open-addressed, power-of-two length
	sortCount int
	sortShift uint
	sortCols  []query.ColumnRef // distinct sort columns seen (almost always one)
	sorts     slabs[Sort]

	preds slabs[query.JoinPred]
}

// slabs is a bump allocator over chunks that are kept for reuse:
// chunks[:cur] are full, chunks[cur][:used] is the current chunk's carved
// prefix. The first chunks are a sixteenth, an eighth, a quarter and a half
// of the full size, so a session that builds a few dozen nodes (a greedy
// plan, a small query) does not zero a full slab.
type slabs[T any] struct {
	chunks [][]T
	cur    int
	used   int
}

// take carves n contiguous zeroed elements from chunks of at most maxChunk.
// Requests larger than that get a private allocation the arena does not
// keep.
func (s *slabs[T]) take(n, maxChunk int) []T {
	if n > maxChunk {
		return make([]T, n)
	}
	for s.cur < len(s.chunks) && s.used+n > len(s.chunks[s.cur]) {
		s.cur++
		s.used = 0
	}
	if s.cur == len(s.chunks) {
		size := maxChunk
		if k := len(s.chunks); k < 4 {
			size = max(maxChunk>>(4-k), n)
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
	out := s.chunks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// reset zeroes the carved elements, so recycled chunks pin nothing, and
// rewinds to the first chunk.
func (s *slabs[T]) reset() {
	for i := 0; i < s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.used])
	}
	s.cur, s.used = 0, 0
}

// capacity returns the number of elements the kept chunks hold.
func (s *slabs[T]) capacity() int {
	c := 0
	for _, ch := range s.chunks {
		c += len(ch)
	}
	return c
}

type arenaSlot struct {
	key uint64 // 0 = empty
	j   *Join
}

type sortSlot struct {
	key uint64 // 0 = empty
	s   *Sort
}

const (
	arenaInitSlots = 1 << 10
	arenaSlabSize  = 256
	sortSlabSize   = 64
	predSlabSize   = 64
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// id returns n's arena id, assigning the next free one on first sight.
func (a *Arena) id(n Node) uint32 {
	var slot *uint32
	switch v := n.(type) {
	case *Scan:
		slot = &v.aid
	case *Join:
		slot = &v.aid
	case *Sort:
		slot = &v.aid
	default:
		panic("plan: unknown node type in arena")
	}
	if *slot == 0 {
		a.nextID++
		*slot = a.nextID
	}
	return *slot
}

// joinKey packs a candidate's signature into a non-zero uint64. Ids start
// at 1 and methods fit in 4 bits, so distinct signatures map to distinct
// keys until 2^30 nodes have been interned — far past any feasible session.
func (a *Arena) joinKey(left, right Node, m cost.Method) uint64 {
	return uint64(a.id(left))<<34 | uint64(a.id(right))<<4 | uint64(m)
}

// Join returns the canonical node for left ⋈_method right. isNew reports
// whether this call created it: the node comes back with Left, Right and
// Method set, and the caller must fill the estimate fields (Preds,
// Selectivity, Pages, Rows) exactly once.
func (a *Arena) Join(left, right Node, m cost.Method) (j *Join, isNew bool) {
	if a.table == nil {
		a.grow(arenaInitSlots)
	}
	k := a.joinKey(left, right, m)
	mask := uint64(len(a.table) - 1)
	i := (k * 0x9e3779b97f4a7c15) >> a.shift
	for {
		s := &a.table[i]
		if s.key == k {
			a.hits++
			return s.j, false
		}
		if s.key == 0 {
			break
		}
		i = (i + 1) & mask
	}
	j = &a.joins.take(1, arenaSlabSize)[0]
	j.Left, j.Right, j.Method = left, right, m
	// Force the Rels memo while the arena still owns the node: under a
	// parallel run the arena is lock-protected, but returned nodes are read
	// by concurrent workers, and a lazy first call to Rels would race.
	j.rels = left.Rels().Union(right.Rels())
	a.nextID++
	j.aid = a.nextID
	a.table[i] = arenaSlot{key: k, j: j}
	a.count++
	if a.count*4 >= len(a.table)*3 {
		a.grow(len(a.table) * 2)
	}
	return j, true
}

// grow rehashes the table into a new power-of-two slot array.
func (a *Arena) grow(slots int) {
	old := a.table
	a.table = make([]arenaSlot, slots)
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	a.shift = shift
	mask := uint64(slots - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := (s.key * 0x9e3779b97f4a7c15) >> shift
		for a.table[i].key != 0 {
			i = (i + 1) & mask
		}
		a.table[i] = s
	}
}

// colIdx returns col's index in the distinct-column list, registering it on
// first sight. A session sorts by (at most) the one ORDER BY column, so the
// scan is effectively constant time.
func (a *Arena) colIdx(col query.ColumnRef) int {
	for i, c := range a.sortCols {
		if c == col {
			return i
		}
	}
	a.sortCols = append(a.sortCols, col)
	return len(a.sortCols) - 1
}

// Sort returns the canonical sort of input by col. isNew reports whether
// this call created it; Input and Key_ are set either way.
func (a *Arena) Sort(input Node, col query.ColumnRef) (s *Sort, isNew bool) {
	if a.sortTable == nil {
		a.growSorts(256)
	}
	k := uint64(a.id(input))<<8 | uint64(a.colIdx(col)) + 1
	mask := uint64(len(a.sortTable) - 1)
	i := (k * 0x9e3779b97f4a7c15) >> a.sortShift
	for {
		sl := &a.sortTable[i]
		if sl.key == k {
			a.hits++
			return sl.s, false
		}
		if sl.key == 0 {
			break
		}
		i = (i + 1) & mask
	}
	s = &a.sorts.take(1, sortSlabSize)[0]
	s.Input, s.Key_ = input, col
	a.nextID++
	s.aid = a.nextID
	a.sortTable[i] = sortSlot{key: k, s: s}
	a.sortCount++
	if a.sortCount*4 >= len(a.sortTable)*3 {
		a.growSorts(len(a.sortTable) * 2)
	}
	return s, true
}

// growSorts rehashes the sort table into a new power-of-two slot array.
func (a *Arena) growSorts(slots int) {
	old := a.sortTable
	a.sortTable = make([]sortSlot, slots)
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	a.sortShift = shift
	mask := uint64(slots - 1)
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		i := (sl.key * 0x9e3779b97f4a7c15) >> shift
		for a.sortTable[i].key != 0 {
			i = (i + 1) & mask
		}
		a.sortTable[i] = sl
	}
}

// Size returns the number of distinct nodes interned.
func (a *Arena) Size() int { return a.count + a.sortCount }

// Hits returns how many node constructions were served from the arena.
func (a *Arena) Hits() int { return a.hits }

// Preds returns a zeroed, full-capacity slice of n join predicates carved
// from the arena's predicate slabs, for the Preds field of a join the arena
// built. Like the nodes, it is recycled by Reset.
func (a *Arena) Preds(n int) []query.JoinPred {
	if n == 0 {
		return nil
	}
	return a.preds.take(n, predSlabSize)
}

// Reset empties the arena for a new session while keeping its tables and
// slabs. Every node and predicate slice the arena handed out is zeroed and
// will be handed out again, so the caller must hold no reference into the
// arena: copy out any plan it keeps with Detach first.
func (a *Arena) Reset() {
	clear(a.table)
	a.count, a.hits, a.nextID = 0, 0, 0
	a.joins.reset()
	clear(a.sortTable)
	a.sortCount = 0
	a.sortCols = a.sortCols[:0]
	a.sorts.reset()
	a.preds.reset()
}

// Bytes approximates the memory the arena retains: its intern tables and
// every slab it has carved, whether or not the current session used them.
func (a *Arena) Bytes() int {
	return len(a.table)*int(unsafe.Sizeof(arenaSlot{})) +
		len(a.sortTable)*int(unsafe.Sizeof(sortSlot{})) +
		a.joins.capacity()*int(unsafe.Sizeof(Join{})) +
		a.sorts.capacity()*int(unsafe.Sizeof(Sort{})) +
		a.preds.capacity()*int(unsafe.Sizeof(query.JoinPred{}))
}
