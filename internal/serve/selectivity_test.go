package serve

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// TestRequestKeyIncludesSelectivities pins the cache-identity rule behind
// the fleet wire format: two requests with identical SQL text but
// different join selectivities are different queries and must not share
// a cache key, and JoinSels must reconstruct the programmatic query from
// its SQL rendering exactly (same key, same plan). The same holds for
// every bit of the environment.
func TestRequestKeyIncludesSelectivities(t *testing.T) {
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{Workers: 2})
	env := lec.Environment{Memory: dm}

	prog := Request{Query: q, Env: env, Strategy: lec.AlgorithmC}
	text := Request{SQL: q.String(), Env: env, Strategy: lec.AlgorithmC}
	rebuilt := Request{SQL: q.String(), JoinSels: []float64{q.Joins[0].Selectivity}, Env: env, Strategy: lec.AlgorithmC}

	_, kProg, err := svc.Canonicalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, kText, err := svc.Canonicalize(text)
	if err != nil {
		t.Fatal(err)
	}
	_, kRebuilt, err := svc.Canonicalize(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if kProg == kText {
		t.Errorf("programmatic (explicit selectivity) and SQL-bound requests share key %q", kProg)
	}
	if kProg != kRebuilt {
		t.Errorf("JoinSels rebind key %q != programmatic key %q", kRebuilt, kProg)
	}

	// Same plan, not just same key.
	rp, err := svc.Optimize(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := svc.Optimize(context.Background(), rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Error("JoinSels rebind should hit the programmatic request's cache entry")
	}
	if rp.Decision.ExpectedCost != rr.Decision.ExpectedCost {
		t.Errorf("rebind E[cost]=%v, programmatic E[cost]=%v", rr.Decision.ExpectedCost, rp.Decision.ExpectedCost)
	}

	// A selectivity list that does not match the bound query is a typed
	// invalid-query error, not a silent partial apply.
	_, _, err = svc.Canonicalize(Request{SQL: q.String(), JoinSels: []float64{0.5, 0.5}, Env: env, Strategy: lec.AlgorithmC})
	if !errors.Is(err, lec.ErrInvalidQuery) {
		t.Errorf("mismatched JoinSels: got %v, want ErrInvalidQuery", err)
	}

	// The key holds every number exactly: environments one bit apart get
	// two keys, two cache entries and two engine runs, and each key
	// decodes to a request that canonicalizes to the same bytes.
	flip := func(f float64) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1) }
	mem := func(vals, probs []float64) lec.Environment {
		d, err := stats.FromNormalized(vals, probs)
		if err != nil {
			t.Fatal(err)
		}
		return lec.Environment{Memory: d}
	}
	chain := func(p01 float64) lec.Environment {
		c, err := stats.NewChain([]float64{700, 2000}, [][]float64{{0.9, p01}, {0.25, 0.75}})
		if err != nil {
			t.Fatal(err)
		}
		return lec.Environment{Memory: dm, Chain: c}
	}
	for name, pair := range map[string][2]lec.Environment{
		"memory probability": {mem([]float64{700, 2000}, []float64{0.2, 0.8}), mem([]float64{700, 2000}, []float64{flip(0.2), 0.8})},
		"memory value":       {mem([]float64{700, 2000}, []float64{0.2, 0.8}), mem([]float64{flip(700), 2000}, []float64{0.2, 0.8})},
		"chain transition":   {chain(0.1), chain(flip(0.1))},
	} {
		svc := New(cat, Config{Workers: 2})
		var keys [2]string
		for i, e := range pair {
			req := Request{Query: q, Env: e, Strategy: lec.AlgorithmC}
			_, keys[i], err = svc.Canonicalize(req)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := svc.Optimize(context.Background(), req); err != nil || r.Cached {
				t.Fatalf("%s: environment %d: cached=%v err=%v, want a fresh engine run", name, i, r != nil && r.Cached, err)
			}
			back, err := DecodeKey(keys[i])
			if err != nil {
				t.Fatalf("%s: decoding key %d: %v", name, i, err)
			}
			if _, again, err := svc.Canonicalize(back); err != nil || again != keys[i] {
				t.Errorf("%s: key %d does not survive DecodeKey and Canonicalize (err %v)", name, i, err)
			}
		}
		if keys[0] == keys[1] {
			t.Errorf("%s: environments one bit apart share a key", name)
		}
		for i, e := range pair {
			if r, err := svc.Optimize(context.Background(), Request{Query: q, Env: e, Strategy: lec.AlgorithmC}); err != nil || !r.Cached {
				t.Errorf("%s: environment %d lost its own cache entry (err %v)", name, i, err)
			}
		}
		if st := svc.Stats(); st.Optimizations != 2 {
			t.Errorf("%s: %d engine runs, want 2", name, st.Optimizations)
		}
	}
}
