package serve

import (
	"sync"

	"repro/internal/query"
	"repro/internal/wire"
)

// bindMemo remembers the bound form of recently seen requests, so a
// repeated request skips parsing, binding and rendering its canonical
// text. A key is the exact request (see bindKey): there is no hashing,
// hence no collisions. An entry is good only at the catalog generation it
// was bound under; Service.bind reads and writes the memo under the catalog
// read lock, and UpdateCatalog bumps the generation under the write lock,
// so an entry's generation always names the catalog it was bound against.
// Errors are never remembered.
//
// Entries share their *query.SPJ with every request that hits them, which
// is the Request.Query contract already: a bound query is read-only.
//
// The memo holds at most limit entries and evicts the oldest insert first.
// On a workload that never repeats a request it then holds the same recent
// queries as the plan cache, so the two mostly share them.
type bindMemo struct {
	mu    sync.RWMutex
	m     map[bindKey]boundQuery
	slots []bindKey // insertion ring; len is the limit, empty when disabled
	next  int       // the ring slot the next insert takes
}

// bindKey is one exact SQL request: its text, and the counts and bits of
// its selectivity overrides (appendOverrides).
type bindKey struct {
	sql       string
	overrides string
}

// boundQuery is one bound request: the query, its canonical rendering
// (q.String()), the generation it was bound under, and its ring slot.
type boundQuery struct {
	gen   uint64
	q     *query.SPJ
	canon string
	slot  int
}

func newBindMemo(limit int) *bindMemo {
	return &bindMemo{m: make(map[bindKey]boundQuery), slots: make([]bindKey, max(limit, 0))}
}

// get returns the entry for the request if it was bound under generation
// gen.
func (b *bindMemo) get(sql string, overrides []byte, gen uint64) (boundQuery, bool) {
	if len(b.slots) == 0 {
		return boundQuery{}, false
	}
	b.mu.RLock()
	e, ok := b.m[bindKey{sql, string(overrides)}]
	b.mu.RUnlock()
	return e, ok && e.gen == gen
}

// put stores e for the request, replacing an entry of another generation in
// place. A new request takes the next ring slot and evicts the entry that
// held it.
func (b *bindMemo) put(sql string, overrides []byte, e boundQuery) {
	if len(b.slots) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	k := bindKey{sql, string(overrides)}
	if old, ok := b.m[k]; ok {
		e.slot = old.slot
	} else {
		e.slot = b.next
		// The slot's previous key is gone already if it was purged or
		// re-inserted into a later slot.
		if prev, ok := b.m[b.slots[e.slot]]; ok && prev.slot == e.slot {
			delete(b.m, b.slots[e.slot])
		}
		b.slots[e.slot] = k
		b.next = (b.next + 1) % len(b.slots)
	}
	b.m[k] = e
}

// purgeBelow drops every entry bound under a generation older than gen.
func (b *bindMemo) purgeBelow(gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, e := range b.m {
		if e.gen < gen {
			delete(b.m, k)
		}
	}
}

// appendOverrides appends the request's selectivity overrides to buf as
// two float lists, joins then selections, in the request key's encoding.
// The counts make the encoding unambiguous.
func appendOverrides(buf []byte, req Request) []byte {
	return wire.AppendF64s(wire.AppendF64s(buf, req.JoinSels), req.SelectionSels)
}
