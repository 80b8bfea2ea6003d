package main

import (
	"context"
	"testing"
)

// runCounts sets a workload up and runs a fixed number of operations.
func runCounts(t *testing.T, sp *spec, seed int64, ops int) counts {
	t.Helper()
	ctx := context.Background()
	h, _, err := setUp(ctx, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	pr, err := h.phase(ctx, 0, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.failed > 0 {
		t.Fatalf("%s seed %d: %d of %d reads failed their checks; first: %v", sp.name, seed, pr.failed, pr.reads, pr.firstErr)
	}
	return h.counts()
}

// TestCountsRepeat checks that every workload's deterministic counts —
// cost evaluations, subsets, engine runs, cache and peer hits, greedy
// serves, escalations by reason and wire bytes — repeat exactly for one
// seed and change under another.
func TestCountsRepeat(t *testing.T) {
	ops := map[string]int{"cold-dp": 300, "tiered-large": 200, "fleet-hot": 2500}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := runCounts(t, sp, 1, ops[sp.name])
			b := runCounts(t, sp, 1, ops[sp.name])
			if a != b {
				t.Fatalf("seed 1 counts differ between runs:\n%+v\n%+v", a, b)
			}
			c := runCounts(t, sp, 2, ops[sp.name])
			if a == c {
				t.Fatalf("seeds 1 and 2 gave the same counts: %+v", a)
			}
			if a.CostEvals == c.CostEvals || a.Subsets == c.Subsets {
				t.Errorf("engine effort does not depend on the seed: %+v vs %+v", a, c)
			}
			switch sp.name {
			case "tiered-large":
				if a.GreedyServed == 0 || a.EscGap == 0 {
					t.Errorf("tier gate never served greedy or never escalated: %+v", a)
				}
			case "fleet-hot":
				if a.PeerHits == 0 || a.WireBytes == 0 || a.Writes == 0 {
					t.Errorf("fleet path not exercised: %+v", a)
				}
			}
			t.Logf("%+v", a)
		})
	}
}

// counts are the deterministic counters of a run: for a fixed seed and a
// fixed number of operations they repeat exactly.
type counts struct {
	CostEvals, Subsets         int64
	EngineRuns                 int64
	CacheHits, CacheMisses     int64
	Evictions                  int64
	PeerHits                   int64
	GreedyServed               int
	EscGap, EscVariance        int
	EscLevelSet, EscOther      int
	WireBytes                  int64
	Reads, Writes, KeysTouched int
}

func (h *harness) counts() counts {
	var c counts
	for _, svc := range h.sys.services() {
		st := svc.Stats()
		c.CostEvals += int64(st.Search.CostEvals)
		c.Subsets += int64(st.Search.Subsets)
		c.EngineRuns += st.Optimizations
		c.CacheHits += st.CacheHits
		c.CacheMisses += st.CacheMisses
		c.Evictions += st.Evictions
	}
	c.PeerHits = h.sys.peerHits()
	if cl, ok := h.sys.(*cluster); ok {
		c.WireBytes = cl.wireBytes.Load()
	}
	c.GreedyServed = h.tally.greedy
	for reason, n := range h.tally.escalations {
		switch reason {
		case "gap":
			c.EscGap += n
		case "variance":
			c.EscVariance += n
		case "level-set":
			c.EscLevelSet += n
		default:
			c.EscOther += n
		}
	}
	c.Reads, c.Writes = h.tally.reads, h.tally.writes
	c.KeysTouched = len(h.keysRead)
	return c
}
