// Package serve is the concurrent optimization service: the layer that
// turns one fail-soft lec.OptimizeContext call into something that can be
// hammered by many clients at once without stampeding the dynamic program,
// queueing without bound, or serving stale plans after the catalog changes.
//
// A Service composes three mechanisms, each its own file:
//
//   - a sharded, single-flight plan cache keyed by the exact request spec
//     (strategy, canonical query, selectivities, environment; spec.go) and
//     the catalog generation (cache.go); concurrent identical requests
//     coalesce through internal/flight into one engine run, and a
//     catalog/statistics update bumps the generation, atomically
//     invalidating every cached plan;
//   - admission control and load shedding (admission.go): a
//     semaphore-bounded worker pool with a bounded queue and a pressure
//     ladder that first tightens the optimization budget as the queue
//     grows — serving deliberately degraded anytime plans, reusing the
//     engine's degradation ladder — and only then sheds with a typed
//     ErrOverloaded carrying a retry-after hint;
//   - a circuit breaker around misbehaving coster configurations
//     (breaker.go): repeated internal failures pin requests to the last
//     good plan until a half-open probe succeeds.
//
// Every engine run — the Optimize leader's, Compare's and Trace's — goes
// through one path (Service.engine): the catalog read lock, the
// serve/optimize fault site, the rung's budget and tier, the run and stats
// counts, and a worker panic turned into lec.ErrInternal. Compare and Trace
// differ only in the options they set and the lec call they make.
//
// The cmd/lecd daemon exposes a Service over HTTP+JSON.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/lec"
)

// ErrDraining reports a request rejected because the service is shutting
// down (BeginDrain was called). In-flight requests finish; new ones get
// this immediately so load balancers fail over fast.
var ErrDraining = errors.New("serve: draining")

// Config tunes a Service. The zero value gets sensible defaults from
// withDefaults.
type Config struct {
	// Workers bounds concurrent optimizations. Default: GOMAXPROCS, min 2.
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond Workers.
	// Arrivals past Workers+QueueDepth are shed. Default 64.
	QueueDepth int
	// Deprecated: Parallelism is ignored; every run searches sequentially.
	Parallelism int
	// DefaultTimeout is applied to requests whose context has no deadline;
	// 0 means none.
	DefaultTimeout time.Duration
	// Options are the base search options (budget, join methods, ...)
	// every request starts from; the pressure ladder only ever tightens
	// the budget, never loosens it.
	Options lec.Options
	// Ladder maps queue depth to budget pressure; nil means DefaultLadder.
	Ladder []Rung
	// CacheCapacity bounds the total plan-cache entries (LRU per shard).
	// Default 512; negative disables caching.
	CacheCapacity int
	// CacheShards is the number of cache shards. Default 8.
	CacheShards int
	// Metrics, when non-nil, receives the service's instrument family
	// (lec_serve_*) plus live admission gauges, and — unless Options.Metrics
	// is already set — the engine's lec_opt_* bundle. Nil disables metrics
	// entirely; the request paths pay a single pointer check.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Ladder == nil {
		c.Ladder = DefaultLadder(c.QueueDepth)
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 512
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 8
	}
	return c
}

// Request is one optimization request.
type Request struct {
	// SQL is the query text; parsed and bound against the live catalog.
	// Ignored when Query is set.
	SQL string
	// Query is a pre-bound block. The caller must not mutate it after
	// submitting. A query bound from SQL (the one Canonicalize returns) is
	// shared with every later request for the same SQL, so it is read-only
	// too.
	Query *query.SPJ
	// Env is the parameter uncertainty to optimize under.
	Env lec.Environment
	// Strategy selects the algorithm (default AlgorithmC via zero value —
	// note lec.LSCMean is the zero Strategy, so set this explicitly).
	Strategy lec.Strategy
	// JoinSels / SelectionSels, when non-empty, override the bound
	// query's join/selection selectivities position-for-position after
	// SQL binding. They exist so a query built programmatically with
	// explicit selectivities can round-trip through its canonical SQL
	// rendering (DecodeKey, behind the fleet's lookups, handoffs and warm
	// snapshots) without the rebinding side silently reverting to
	// catalog-derived estimates — which would be a different query under
	// the same text. Ignored when Query is set; lengths must match the
	// bound predicate lists.
	JoinSels      []float64
	SelectionSels []float64

	// canon is the canonical rendering of canonOf, set by Canonicalize so
	// that serving the bound request reuses it instead of rendering the
	// query again. It counts only while Query is still canonOf.
	canonOf *query.SPJ
	canon   string
}

// Response is one served decision plus how it was produced.
type Response struct {
	// Decision is the optimization outcome. Shared by every request that
	// hit the same cache entry or coalesced into the same flight — treat
	// as read-only.
	Decision *lec.Decision
	// Cached reports a plan served from the cache without optimization.
	Cached bool
	// Coalesced reports that this request waited on an identical
	// in-flight optimization instead of running its own.
	Coalesced bool
	// Pinned reports a last-good plan served because the circuit breaker
	// for this configuration is open.
	Pinned bool
	// Pressure names the admission rung the request was admitted at; ""
	// means the full configured budget.
	Pressure string
}

// Service is a concurrency-safe optimization front end over one catalog.
// All methods are safe for concurrent use.
type Service struct {
	cfg Config

	// catMu guards the catalog: optimizations hold the read lock for the
	// whole engine run, UpdateCatalog the write lock, so a mutation never
	// interleaves with a search.
	catMu sync.RWMutex
	cat   *catalog.Catalog
	gen   atomic.Uint64

	cache    *planCache
	binds    *bindMemo     // bound SQL requests, scoped to a generation
	sem      chan struct{} // worker slots
	queue    chan struct{} // waiting slots
	breakers breakerSet

	draining atomic.Bool
	clock    func() time.Time // stubbed in breaker tests
	// runner executes one engine run under a pressure rung; it is
	// (*Service).run except in white-box tests that need to script failure
	// sequences the real engine cannot produce deterministically.
	runner func(ctx context.Context, q *query.SPJ, req Request, rung Rung) (*lec.Decision, error)

	c counters
	m *serveMetrics // nil when Config.Metrics is nil
}

// counters are the service-level monotonic counters; gauges are read live.
type counters struct {
	requests         atomic.Int64
	optimizations    atomic.Int64 // actual engine runs executed
	shed             atomic.Int64
	pressureDegraded atomic.Int64 // leader runs admitted at a non-zero rung
	pinnedServes     atomic.Int64
	degraded         atomic.Int64 // engine runs with a degraded decision

	searchMu sync.Mutex
	search   opt.Stats // cumulative engine counters across runs
}

// New builds a Service over the catalog. The Service takes ownership of
// coordinating catalog access: after New, mutate the catalog only through
// UpdateCatalog.
func New(cat *catalog.Catalog, cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Metrics != nil && cfg.Options.Metrics == nil {
		// Engine-level metrics ride on the same registry unless the caller
		// wired their own bundle.
		cfg.Options.Metrics = obs.NewOptMetrics(cfg.Metrics)
	}
	s := &Service{
		cfg:   cfg,
		cat:   cat,
		cache: newPlanCache(cfg.CacheShards, cfg.CacheCapacity),
		binds: newBindMemo(cfg.CacheCapacity),
		sem:   make(chan struct{}, cfg.Workers),
		queue: make(chan struct{}, cfg.QueueDepth),
		clock: time.Now,
	}
	s.breakers.m = make(map[string]*list.Element)
	s.breakers.limit = max(cfg.CacheCapacity, minBreakers)
	s.runner = s.run
	s.m = newServeMetrics(cfg.Metrics, s)
	return s
}

// Generation returns the current catalog/statistics generation. It starts
// at 0 and bumps on every UpdateCatalog/Invalidate.
func (s *Service) Generation() uint64 { return s.gen.Load() }

// Invalidate bumps the generation, atomically invalidating every cached
// plan and bound request (entries under older generations become
// unreachable and are purged). Use when catalog statistics changed outside
// UpdateCatalog.
func (s *Service) Invalidate() {
	s.purgeBelow(s.gen.Add(1))
}

// purgeBelow reclaims the plan-cache and bind-memo entries of generations
// older than gen.
func (s *Service) purgeBelow(gen uint64) {
	s.cache.purgeBelow(gen)
	s.binds.purgeBelow(gen)
}

// AdoptGeneration raises the catalog generation to gen — a peer told us the
// fleet has moved on — purging every older cached plan. It never lowers the
// generation (a stale or replayed propagation is a no-op), so concurrent
// adoptions and local Invalidates converge on the maximum. Reports whether
// the generation actually advanced.
func (s *Service) AdoptGeneration(gen uint64) bool {
	for {
		cur := s.gen.Load()
		if gen <= cur {
			return false
		}
		if s.gen.CompareAndSwap(cur, gen) {
			s.purgeBelow(gen)
			return true
		}
	}
}

// UpdateCatalog applies a catalog/statistics mutation under the write lock
// — no optimization or binding runs while mutate executes — and bumps the
// generation before releasing it, so no request can bind against the new
// catalog under the old generation. The stale cache entries are purged
// after the lock is released. The mutation must not retain the
// *catalog.Catalog.
//
// When mutate returns an error the generation is not bumped: mutate must
// then leave the catalog unchanged (a caller that changed it anyway calls
// Invalidate).
func (s *Service) UpdateCatalog(mutate func(*catalog.Catalog) error) error {
	s.catMu.Lock()
	if err := mutate(s.cat); err != nil {
		s.catMu.Unlock()
		return err
	}
	gen := s.gen.Add(1)
	s.catMu.Unlock()
	s.purgeBelow(gen)
	return nil
}

// ViewCatalog runs fn with the live catalog under the read lock. fn must
// only read — mutations go through UpdateCatalog. The fleet layer uses it
// to fingerprint the catalog for snapshot compatibility checks.
func (s *Service) ViewCatalog(fn func(*catalog.Catalog)) {
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	fn(s.cat)
}

// BeginDrain puts the service into drain mode: every subsequent Optimize
// and Compare fails fast with ErrDraining while in-flight requests run to
// completion. Before returning it flushes the plan cache's in-flight
// single-flight leaders — their results land (or are suppressed) before
// drain reports done, so a snapshot taken after BeginDrain never races a
// late cache insert. It cannot be undone; drain is the prelude to shutdown.
func (s *Service) BeginDrain() {
	s.draining.Store(true)
	s.cache.drain()
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Optimize serves one request: plan cache (with single-flight coalescing),
// then admission control, breaker, and the budgeted engine run. The
// returned Response always carries a valid Decision when err is nil.
func (s *Service) Optimize(ctx context.Context, req Request) (*Response, error) {
	if s.m == nil {
		return s.optimize(ctx, req)
	}
	t0 := time.Now()
	resp, err := s.optimize(ctx, req)
	s.m.optimizeSeconds.Observe(time.Since(t0).Seconds())
	return resp, err
}

func (s *Service) optimize(ctx context.Context, req Request) (*Response, error) {
	ctx, cancel, q, canon, err := s.accept(ctx, req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	key := s.key(q, canon, req)
	if resp, ok := s.cache.get(key); ok {
		return resp, nil
	}
	resp, coalesced, err := s.cache.do(ctx, key, func() (*Response, error) {
		return s.optimizeLeader(ctx, q, canon, req, key.spec)
	})
	if coalesced && resp != nil {
		// Followers share the leader's Decision but report their own path.
		r := *resp
		r.Coalesced = true
		return &r, err
	}
	return resp, err
}

// optimizeLeader is the single-flight winner's path: admission, breaker,
// engine run. Its Response is shared with every coalesced follower
// and, when cacheable, stored under the request key. The breaker is keyed
// by the generation-free request key.
func (s *Service) optimizeLeader(ctx context.Context, q *query.SPJ, canon string, req Request, bkey string) (*Response, error) {
	release, rung, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	br := s.breakers.get(bkey)
	now := s.clock()
	admitted, pinned := br.allow(now)
	if !admitted {
		if pinned != nil {
			s.c.pinnedServes.Add(1)
			return &Response{Decision: pinned, Pinned: true, Pressure: rung.Name}, nil
		}
		return nil, fmt.Errorf("%w (strategy %s, query %q)", ErrCircuitOpen, req.Strategy, canon)
	}

	dec, err := s.runner(ctx, q, req, rung)
	if err != nil {
		if errors.Is(err, lec.ErrInternal) {
			if br.fail(s.clock()) {
				s.breakers.trips.Add(1)
			}
			// A freshly opened breaker can still pin this request.
			if _, pinned := br.allow(s.clock()); pinned != nil {
				s.c.pinnedServes.Add(1)
				return &Response{Decision: pinned, Pinned: true, Pressure: rung.Name}, nil
			}
		} else {
			br.ok(nil)
		}
		return nil, err
	}
	if br.ok(dec) {
		s.breakers.resets.Add(1)
	}
	resp := &Response{Decision: dec, Pressure: rung.Name}
	if rung.Name != "" {
		s.c.pressureDegraded.Add(1)
	}
	return resp, nil
}

// accept is every request's prelude: count it, refuse it while draining,
// apply the default timeout, and bind its query. The caller defers cancel
// when err is nil.
func (s *Service) accept(ctx context.Context, req Request) (_ context.Context, cancel context.CancelFunc, q *query.SPJ, canon string, err error) {
	s.c.requests.Add(1)
	if s.draining.Load() {
		return ctx, nil, nil, "", ErrDraining
	}
	cancel = func() {}
	if _, has := ctx.Deadline(); !has && s.cfg.DefaultTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
	}
	if q, canon, err = s.bind(req); err != nil {
		cancel()
		return ctx, nil, nil, "", err
	}
	return ctx, cancel, q, canon, nil
}

// engineCall is one lec entry point run on a bound request.
type engineCall func(ctx context.Context, o *lec.Optimizer, q *query.SPJ, req Request) ([]*lec.Decision, error)

func optimizeCall(ctx context.Context, o *lec.Optimizer, q *query.SPJ, req Request) ([]*lec.Decision, error) {
	dec, err := o.OptimizeContext(ctx, q, req.Env, req.Strategy)
	return []*lec.Decision{dec}, err
}

func compareCall(ctx context.Context, o *lec.Optimizer, q *query.SPJ, req Request) ([]*lec.Decision, error) {
	return o.CompareContext(ctx, q, req.Env)
}

// first is the decision of an optimizeCall, nil when there is none.
func first(ds []*lec.Decision) *lec.Decision {
	if len(ds) == 0 {
		return nil
	}
	return ds[0]
}

// engine is the one engine-run path, under the Optimize leader (run),
// Compare and Trace. It runs call on an optimizer built under the catalog
// read lock, after the serve/optimize fault site, with the rung's budget
// and tier folded into the configured options and tune, when set, applied
// last. It counts the run (and, when any returned decision degraded, one
// degraded run), adds every returned decision's engine counters to the
// service's, and turns a worker panic (injected ones included) into
// lec.ErrInternal so the breaker and the daemon's status mapping see it.
func (s *Service) engine(ctx context.Context, q *query.SPJ, req Request, rung Rung, tune func(*lec.Options), call engineCall) (ds []*lec.Decision, err error) {
	defer func() {
		if p := recover(); p != nil {
			ds, err = nil, fmt.Errorf("%w: serving worker panic: %v", lec.ErrInternal, p)
		}
	}()
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	faultinject.Check(faultinject.ServeOptimize)
	opts := s.cfg.Options
	opts.Budget = tightenBudget(opts.Budget, rung.Budget)
	opts.Tier = forceTier(opts.Tier, rung.Tier)
	if tune != nil {
		tune(&opts)
	}
	s.c.optimizations.Add(1)
	ds, err = call(ctx, lec.NewWithOptions(s.cat, opts), q, req)
	degraded := false
	s.c.searchMu.Lock()
	for _, d := range ds {
		if d != nil {
			s.c.search.Add(d.Stats)
			degraded = degraded || d.Degraded
		}
	}
	s.c.searchMu.Unlock()
	if degraded {
		s.c.degraded.Add(1)
	}
	return ds, err
}

// run is the Optimize leader's engine run under a pressure rung.
func (s *Service) run(ctx context.Context, q *query.SPJ, req Request, rung Rung) (*lec.Decision, error) {
	ds, err := s.engine(ctx, q, req, rung, nil, optimizeCall)
	return first(ds), err
}

// direct serves a request that bypasses the plan cache and the breaker:
// the request prelude, admission (pressure ladder included), and one
// engine run.
func (s *Service) direct(ctx context.Context, req Request, tune func(*lec.Options), call engineCall) ([]*lec.Decision, error) {
	ctx, cancel, q, _, err := s.accept(ctx, req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	release, rung, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.engine(ctx, q, req, rung, tune, call)
}

// Compare runs every strategy side by side for one request, admitted like
// any other work but bypassing the plan cache and breaker (its six runs
// span all coster configurations).
func (s *Service) Compare(ctx context.Context, req Request) ([]*lec.Decision, error) {
	if s.m == nil {
		return s.compare(ctx, req)
	}
	t0 := time.Now()
	ds, err := s.compare(ctx, req)
	s.m.compareSeconds.Observe(time.Since(t0).Seconds())
	return ds, err
}

func (s *Service) compare(ctx context.Context, req Request) ([]*lec.Decision, error) {
	return s.direct(ctx, req, nil, compareCall)
}

// Trace serves one request with decision tracing enabled and returns the
// Decision, whose Trace field carries the per-subset DP record. It bypasses
// the plan cache and circuit breaker — a cached Decision has no trace, and
// a diagnostic read should observe the live configuration, not a pinned
// plan — but honors drain mode, the default timeout, and admission control
// (including the pressure ladder's budget) like any other engine run.
func (s *Service) Trace(ctx context.Context, req Request) (*lec.Decision, error) {
	if s.m == nil {
		return s.traceRun(ctx, req)
	}
	t0 := time.Now()
	dec, err := s.traceRun(ctx, req)
	s.m.traceSeconds.Observe(time.Since(t0).Seconds())
	return dec, err
}

func (s *Service) traceRun(ctx context.Context, req Request) (*lec.Decision, error) {
	ds, err := s.direct(ctx, req, traceOptions, optimizeCall)
	return first(ds), err
}

// traceOptions turns decision tracing on. The trace IS the per-subset DP
// record and a greedy-served plan has none, so diagnostic reads pin the DP
// tier, whatever the configuration or the pressure rung asks for.
func traceOptions(o *lec.Options) {
	o.Tier = lec.TierDP
	o.Trace = true
}

// bind resolves the request's query and its canonical rendering. A
// pre-bound query is returned as is, with the rendering Canonicalize
// attached to it when there is one. SQL is bound under the catalog read
// lock, through the bind memo: a request seen before at the current
// generation is not parsed, bound or rendered again.
func (s *Service) bind(req Request) (q *query.SPJ, canon string, err error) {
	if req.Query != nil {
		if req.canonOf == req.Query {
			return req.Query, req.canon, nil
		}
		return req.Query, req.Query.String(), nil
	}
	if req.SQL == "" {
		return nil, "", fmt.Errorf("%w: request needs SQL or a bound query", lec.ErrInvalidQuery)
	}
	var buf [512]byte
	overrides := appendOverrides(buf[:0], req)
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	gen := s.gen.Load()
	if e, ok := s.binds.get(req.SQL, overrides, gen); ok {
		return e.q, e.canon, nil
	}
	q, err = bindSQL(req, s.cat)
	if err != nil {
		return nil, "", err
	}
	if canon = q.String(); canon == req.SQL {
		canon = req.SQL // canonical already: keep one copy of the text
	}
	s.binds.put(req.SQL, overrides, boundQuery{gen: gen, q: q, canon: canon})
	return q, canon, nil
}

// bindSQL parses and binds the request's SQL against cat and applies its
// selectivity overrides.
func bindSQL(req Request, cat *catalog.Catalog) (*query.SPJ, error) {
	q, err := sqlparse.ParseAndBind(req.SQL, cat)
	if err != nil {
		return nil, classify(err)
	}
	if len(req.JoinSels) > 0 {
		if len(req.JoinSels) != len(q.Joins) {
			return nil, fmt.Errorf("%w: %d join selectivities for %d joins", lec.ErrInvalidQuery, len(req.JoinSels), len(q.Joins))
		}
		for i, sel := range req.JoinSels {
			q.Joins[i].Selectivity = sel
		}
	}
	if len(req.SelectionSels) > 0 {
		if len(req.SelectionSels) != len(q.Selections) {
			return nil, fmt.Errorf("%w: %d selection selectivities for %d selections", lec.ErrInvalidQuery, len(req.SelectionSels), len(q.Selections))
		}
		for i, sel := range req.SelectionSels {
			q.Selections[i].Selectivity = sel
		}
	}
	return q, nil
}

// classify maps binder errors onto the lec taxonomy the same way the lec
// facade does, so the daemon's status mapping sees one vocabulary.
func classify(err error) error {
	if errors.Is(err, lec.ErrInvalidQuery) || errors.Is(err, lec.ErrUnknownRelation) {
		return err
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unknown table"), strings.Contains(msg, "unknown column"), strings.Contains(msg, "no table"):
		return fmt.Errorf("%w: %w", lec.ErrUnknownRelation, err)
	default:
		return fmt.Errorf("%w: %w", lec.ErrInvalidQuery, err)
	}
}

// key derives the cache key of one bound request: its request key, which
// alone keys the breaker (a breaker guards a coster configuration, which a
// statistics refresh does not change), at the current generation. canon is
// q's canonical rendering.
func (s *Service) key(q *query.SPJ, canon string, req Request) cacheKey {
	spec := requestKey(q, canon, req.Strategy, req.Env)
	return cacheKey{gen: s.gen.Load(), spec: spec}
}

// Canonicalize binds the request's query against the live catalog and
// returns the bound request plus its generation-free request key: the
// exact spec encoding of the canonical (query, strategy, environment)
// identity (requestKey). The fleet layer hashes it for cache-key ownership
// and sends it as is; DecodeKey turns it back into a request. The returned
// request carries the bound Query and its canonical rendering, so
// optimizing it later neither re-parses nor re-renders the query.
func (s *Service) Canonicalize(req Request) (Request, string, error) {
	q, canon, err := s.bind(req)
	if err != nil {
		return req, "", err
	}
	req.Query, req.canonOf, req.canon = q, q, canon
	return req, requestKey(q, canon, req.Strategy, req.Env), nil
}

// Pressure reports the live admission queue depth and whether it has
// reached the first pressure-ladder rung — the "this node is busy enough
// to start degrading budgets" signal the fleet layer uses as its hedging
// trigger. The fleet also piggybacks the depth on every lookup reply, for
// its /clusterz view of the peers.
func (s *Service) Pressure() (depth int, pressured bool) {
	depth = len(s.queue)
	for _, r := range s.cfg.Ladder {
		if depth >= r.Depth {
			return depth, true
		}
	}
	return depth, false
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts every Optimize, Compare and Trace call, accepted or
	// not.
	Requests int64
	// Optimizations counts actual engine runs (cache hits, coalesced
	// waits, pinned serves, and shed requests run zero).
	Optimizations int64
	// Cache counters.
	CacheHits, CacheMisses, Coalesced, Evictions, Invalidations int64
	// Shed counts requests rejected with ErrOverloaded.
	Shed int64
	// PressureDegraded counts Optimize leader runs served under a
	// tightened pressure-ladder budget.
	PressureDegraded int64
	// BreakerTrips / BreakerResets / PinnedServes are the circuit-breaker
	// counters.
	BreakerTrips, BreakerResets, PinnedServes int64
	// Degraded counts engine runs (Optimize leaders, Compare, Trace) that
	// returned a decision from the engine's degradation ladder.
	Degraded int64
	// InFlight and QueueDepth are live gauges of the admission state.
	InFlight, QueueDepth int
	// Generation is the current catalog generation.
	Generation uint64
	// Enumeration names the configured subset-lattice enumerator
	// (Config.Options.Enumeration) every admitted run plans under.
	Enumeration string
	// Tier names the configured base planning tier (Config.Options.Tier)
	// requests start from; the pressure ladder may force cheaper tiers.
	Tier string
	// Search accumulates the engine's own instrumentation counters
	// (subsets, cost evals, prunes, fault events) across every run.
	Search opt.Stats
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Requests:         s.c.requests.Load(),
		Optimizations:    s.c.optimizations.Load(),
		Shed:             s.c.shed.Load(),
		PressureDegraded: s.c.pressureDegraded.Load(),
		PinnedServes:     s.c.pinnedServes.Load(),
		Degraded:         s.c.degraded.Load(),
		InFlight:         len(s.sem),
		QueueDepth:       len(s.queue),
		Generation:       s.gen.Load(),
	}
	st.Enumeration = s.cfg.Options.Enumeration.String()
	st.Tier = s.cfg.Options.Tier.String()
	st.CacheHits, st.CacheMisses, st.Coalesced, st.Evictions, st.Invalidations = s.cache.counters()
	st.BreakerTrips, st.BreakerResets = s.breakers.counts()
	s.c.searchMu.Lock()
	st.Search = s.c.search
	s.c.searchMu.Unlock()
	return st
}

// tightenBudget folds a pressure rung's budget into the base: each bound
// applies when it is set and stricter than (or absent from) the base. The
// ladder can only reduce work, never extend it.
func tightenBudget(base, rung lec.Budget) lec.Budget {
	out := base
	if rung.MaxCostEvals > 0 && (out.MaxCostEvals <= 0 || rung.MaxCostEvals < out.MaxCostEvals) {
		out.MaxCostEvals = rung.MaxCostEvals
	}
	if rung.MaxSubsets > 0 && (out.MaxSubsets <= 0 || rung.MaxSubsets < out.MaxSubsets) {
		out.MaxSubsets = rung.MaxSubsets
	}
	return out
}
