package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// reencode is requestKey over a decoded request: a query that holds only
// the request's selectivity overrides, rendered as the request's SQL.
func reencode(req Request) string {
	q := &query.SPJ{
		Joins:      make([]query.JoinPred, len(req.JoinSels)),
		Selections: make([]query.Selection, len(req.SelectionSels)),
	}
	for i, s := range req.JoinSels {
		q.Joins[i].Selectivity = s
	}
	for i, s := range req.SelectionSels {
		q.Selections[i].Selectivity = s
	}
	return requestKey(q, req.SQL, req.Strategy, req.Env)
}

// FuzzSpec decodes arbitrary bytes as a request key. Decoding must not
// panic, must allocate at most a small multiple of the input, and any key
// that decodes must re-encode to exactly its own bytes. The corpus starts
// from real keys and from keys whose lists claim 2^62 elements.
func FuzzSpec(f *testing.F) {
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{})
	chain := stats.MustNewChain([]float64{700, 2000}, [][]float64{{0.9, 0.1}, {0.25, 0.75}})
	hit, hitSvc := hitRequest(f, 1)
	for _, c := range []struct {
		svc *Service
		req Request
	}{
		{svc, Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}},
		{svc, Request{SQL: q.String(), Env: lec.Environment{Memory: dm, Chain: chain}, Strategy: lec.LSCMode}},
		{hitSvc, hit},
	} {
		_, key, err := c.svc.Canonicalize(c.req)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeKey(key); err != nil {
			f.Fatalf("a real key does not decode: %v", err)
		}
		f.Add(key)
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	pad := make([]byte, 64)
	// Strategy 0 and SQL "", then a 2^62-element join list; and strategy
	// 0, SQL "" and five empty lists, then 2^62 chain rows.
	f.Add(string(bytes.Join([][]byte{{0, 0}, huge, pad}, nil)))
	f.Add(string(bytes.Join([][]byte{{0, 0, 0, 0, 0, 0, 0}, huge, pad}, nil)))

	f.Fuzz(func(t *testing.T, key string) {
		req, err := DecodeKey(key)
		if err == nil {
			if again := reencode(req); again != key {
				t.Fatalf("decoded key re-encodes differently:\n  in  %x\n  out %x", key, again)
			}
		}
		// Decoding is deterministic, so the least of three measurements
		// leaves out what the fuzzing process's other goroutines allocate.
		// The widest element per input byte is a chain row: a slice header
		// for a one-byte length, once decoded and once in the built chain.
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			DecodeKey(key)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(64*len(key) + 4096); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(key), alloc, limit)
		}
	})
}
