package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/lec"
)

// ErrOverloaded reports a request shed by admission control: every worker
// busy and every queue slot taken. Errors wrapping it carry a retry-after
// hint; unwrap with AsOverload.
var ErrOverloaded = fmt.Errorf("serve: overloaded")

// retryAfterUnit is the retry-after hint per request queued at shed time.
const retryAfterUnit = 25 * time.Millisecond

// OverloadError is the concrete shed error. errors.Is(err, ErrOverloaded)
// matches it.
type OverloadError struct {
	// RetryAfter estimates when a retry has a worker's chance of being
	// admitted, sized from the queue backlog at shed time.
	RetryAfter time.Duration
	// QueueDepth is the backlog observed when the request was shed.
	QueueDepth int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (queue %d deep, retry after %v)", e.QueueDepth, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Rung is one step of the pressure ladder: at queue depth ≥ Depth,
// requests are admitted under Budget instead of the configured budget.
// Tightened budgets make the engine descend its anytime degradation
// ladder, so the service sheds *quality* before it sheds *requests*.
type Rung struct {
	// Depth is the smallest queue depth at which this rung applies.
	Depth int
	// Budget replaces (well, tightens — it never loosens) Options.Budget
	// for requests admitted at this rung.
	Budget lec.Budget
	// Tier is the minimum planning tier forced on requests admitted at
	// this rung (see lec.Tier; higher tiers are cheaper). It composes with
	// the configured Options.Tier via forceTier — the ladder can push a
	// request toward the greedy fast path but never pull a greedy-pinned
	// service back into the DP.
	Tier lec.Tier
	// Name labels the rung in Response.Pressure and the stats.
	Name string
}

// DefaultLadder builds the standard two-step pressure ladder for a queue
// of the given depth: light pressure caps work near the cost of a full
// medium-size search and lets the tier controller serve greedy plans when
// the gap bound allows; heavy pressure forces every request onto the
// greedy tier before shedding, so the service degrades plan quality —
// with the DP still reachable only through the engine's own fault
// fallbacks — before it degrades availability.
func DefaultLadder(queueDepth int) []Rung {
	light := queueDepth / 4
	if light < 1 {
		light = 1
	}
	heavy := queueDepth / 2
	if heavy <= light {
		heavy = light + 1
	}
	return []Rung{
		{Depth: light, Budget: lec.Budget{MaxCostEvals: 20000}, Tier: lec.TierAuto, Name: "tightened"},
		{Depth: heavy, Budget: lec.Budget{MaxCostEvals: 200}, Tier: lec.TierGreedy, Name: "degraded"},
	}
}

// forceTier composes the configured tier with a pressure rung's: tiers are
// ordered DP < Auto < Greedy by cheapness, so the maximum keeps whichever
// side demands less work. Pressure can cheapen planning, never make a
// request pay for a fuller search than the service was configured for.
func forceTier(base, rung lec.Tier) lec.Tier {
	if rung > base {
		return rung
	}
	return base
}

// admit blocks until the request holds a worker slot, sheds it, or its
// context ends. The returned rung reflects the queue depth observed at
// admission: requests that had to queue get progressively tighter budgets.
// release must be called exactly once when the work is done.
func (s *Service) admit(ctx context.Context) (release func(), rung Rung, err error) {
	faultinject.Check(faultinject.ServeAdmit)
	// Fast path: a worker is free and nobody is queued.
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, Rung{}, nil
	default:
	}
	// Queue, or shed when the queue is full.
	select {
	case s.queue <- struct{}{}:
	default:
		depth := len(s.queue)
		s.c.shed.Add(1)
		return nil, Rung{}, &OverloadError{
			RetryAfter: time.Duration(depth+1) * retryAfterUnit,
			QueueDepth: depth,
		}
	}
	rung = s.rungAt(len(s.queue))
	select {
	case s.sem <- struct{}{}:
		<-s.queue
		return func() { <-s.sem }, rung, nil
	case <-ctx.Done():
		<-s.queue
		return nil, Rung{}, ctx.Err()
	}
}

// rungAt picks the deepest ladder rung whose threshold the observed queue
// depth meets; below every threshold the zero rung (full budget) applies.
func (s *Service) rungAt(depth int) Rung {
	best := Rung{}
	for _, r := range s.cfg.Ladder {
		if depth >= r.Depth && r.Depth >= best.Depth {
			best = r
		}
	}
	return best
}
