package serve

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/lec"
)

// requestKey is the generation-free identity of one bound request: the
// exact encoding of its spec, compared byte for byte and hashed only to
// pick a cache shard or a ring point. canon is q's canonical pseudo-SQL
// rendering (q.String()), so textual variants that bind to the same block
// share a key; the numbers the rendering cannot express follow it bit for
// bit. In package wire's codec the spec is
//
//	strategy           int
//	canonical SQL      string
//	join sels          []float64, q's join selectivities in order
//	selection sels     []float64, q's selection selectivities in order
//	memory support     []float64, empty without a memory distribution
//	memory probs       []float64
//	chain states       []float64, empty without a Markov chain
//	chain rows         count, then one []float64 per transition row
//
// Two requests with the same text but other selectivities are other
// queries, and two environments that differ in one bit are other
// environments: each gets its own key, cache entry and engine run. The
// same bytes are the fleet's lookup, handoff and snapshot payload.
func requestKey(q *query.SPJ, canon string, s lec.Strategy, env lec.Environment) string {
	var buf [512]byte
	b := wire.AppendInt(buf[:0], int(s))
	b = wire.AppendStr(b, canon)
	b = wire.AppendUvarint(b, uint64(len(q.Joins)))
	for _, j := range q.Joins {
		b = wire.AppendF64(b, j.Selectivity)
	}
	b = wire.AppendUvarint(b, uint64(len(q.Selections)))
	for _, sel := range q.Selections {
		b = wire.AppendF64(b, sel.Selectivity)
	}
	m := 0
	if env.Memory != nil {
		m = env.Memory.Len()
	}
	b = wire.AppendUvarint(b, uint64(m))
	for i := 0; i < m; i++ {
		b = wire.AppendF64(b, env.Memory.Value(i))
	}
	b = wire.AppendUvarint(b, uint64(m))
	for i := 0; i < m; i++ {
		b = wire.AppendF64(b, env.Memory.Prob(i))
	}
	if c := env.Chain; c != nil {
		b = wire.AppendF64s(b, c.States())
		b = wire.AppendUvarint(b, uint64(c.NumStates()))
		for i := 0; i < c.NumStates(); i++ {
			b = wire.AppendF64s(b, c.TransitionRow(i))
		}
	} else {
		b = wire.AppendUvarint(wire.AppendUvarint(b, 0), 0)
	}
	return string(b)
}

// DecodeKey turns a request key (Canonicalize, or a peer's message) back
// into the request it identifies: the canonical SQL with its selectivities
// as overrides, the strategy and the environment. Decoding is strict — any
// key it accepts is the only encoding of the request it returns — and it
// refuses a memory distribution that is not already normalized
// (stats.FromNormalized) instead of repairing it, so a rebuilt request
// keeps every bit of the sender's. Canonicalizing the result against a
// catalog that binds the SQL alike yields the same key again.
func DecodeKey(key string) (Request, error) {
	d := wire.NewStringDecoder(key)
	req := Request{Strategy: lec.Strategy(d.Int()), SQL: d.Str()}
	req.JoinSels = d.F64s()
	req.SelectionSels = d.F64s()
	vals, probs := d.F64s(), d.F64s()
	states := d.F64s()
	var rows [][]float64
	// Each row takes at least its one-byte count.
	if n := d.Count(1); n > 0 {
		rows = make([][]float64, n)
		for i := range rows {
			rows[i] = d.F64s()
		}
	}
	if err := d.Finish(); err != nil {
		return Request{}, fmt.Errorf("serve: request key: %w", err)
	}
	if len(vals) > 0 || len(probs) > 0 {
		m, err := stats.FromNormalized(vals, probs)
		if err != nil {
			return Request{}, fmt.Errorf("serve: request key: memory distribution: %w", err)
		}
		req.Env.Memory = m
	}
	if len(states) > 0 || len(rows) > 0 {
		c, err := stats.NewChain(states, rows)
		if err != nil {
			return Request{}, fmt.Errorf("serve: request key: memory chain: %w", err)
		}
		req.Env.Chain = c
	}
	return req, nil
}
