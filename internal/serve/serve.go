// Package serve is the concurrent optimization service: the layer that
// turns one fail-soft lec.OptimizeContext call into something that can be
// hammered by many clients at once without stampeding the dynamic program,
// queueing without bound, or serving stale plans after the catalog changes.
//
// A Service composes four mechanisms, each its own file:
//
//   - a sharded, single-flight plan cache keyed by canonicalized query +
//     strategy + environment fingerprint + catalog generation (cache.go);
//     concurrent identical requests coalesce into one engine run, and a
//     catalog/statistics update bumps the generation, atomically
//     invalidating every cached plan;
//   - admission control and load shedding (admission.go): a
//     semaphore-bounded worker pool with a bounded queue and a pressure
//     ladder that first tightens the optimization budget as the queue
//     grows — serving deliberately degraded anytime plans, reusing the
//     engine's degradation ladder — and only then sheds with a typed
//     ErrOverloaded carrying a retry-after hint;
//   - retry with jittered exponential backoff for transient failures
//     (retry.go);
//   - a circuit breaker around misbehaving coster configurations
//     (breaker.go): repeated internal failures pin requests to the last
//     good plan until a half-open probe succeeds.
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
	// Parallelism is the per-request engine parallelism ceiling: each
	// admitted run may fan its DP levels across up to this many workers.
	// The effective value is recomputed per request against the free
	// admission slots (see effectiveParallelism), so an idle service gives
	// one request the full ceiling while a saturated one degrades every
	// run to sequential instead of oversubscribing the host. Default 1.
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
	// Retry tunes transient-failure retries.
	Retry RetryConfig
	// Breaker tunes the per-configuration circuit breaker.
	Breaker BreakerConfig
	// RetryAfterHint is the per-queued-request unit used to size the
	// retry-after hint on shed responses. Default 25ms.
	RetryAfterHint time.Duration
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
	if c.Parallelism < 1 {
		c.Parallelism = 1
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
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 25 * time.Millisecond
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Request is one optimization request.
type Request struct {
	// SQL is the query text; parsed and bound against the live catalog.
	// Ignored when Query is set.
	SQL string
	// Query is a pre-bound block. The caller must not mutate it after
	// submitting.
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
	// rendering (the fleet wire format and warm snapshots) without the
	// rebinding side silently reverting to catalog-derived estimates —
	// which would be a different query under the same text. Ignored when
	// Query is set; lengths must match the bound predicate lists.
	JoinSels      []float64
	SelectionSels []float64
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
	sem      chan struct{} // worker slots
	queue    chan struct{} // waiting slots
	breakers breakerSet
	backoff  *jitter

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
	pressureDegraded atomic.Int64 // responses admitted at a non-zero rung
	retries          atomic.Int64
	pinnedServes     atomic.Int64

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
		sem:   make(chan struct{}, cfg.Workers),
		queue: make(chan struct{}, cfg.QueueDepth),
		clock: time.Now,
	}
	s.breakers.m = make(map[string]*list.Element)
	s.breakers.limit = max(cfg.CacheCapacity, minBreakers)
	s.backoff = newJitter(cfg.Retry.Seed)
	s.runner = s.run
	s.m = newServeMetrics(cfg.Metrics, s)
	return s
}

// Generation returns the current catalog/statistics generation. It starts
// at 0 and bumps on every UpdateCatalog/Invalidate.
func (s *Service) Generation() uint64 { return s.gen.Load() }

// Invalidate bumps the generation, atomically invalidating every cached
// plan (entries under older generations become unreachable and are purged).
// Use when catalog statistics changed outside UpdateCatalog.
func (s *Service) Invalidate() {
	s.gen.Add(1)
	s.cache.purgeBelow(s.gen.Load())
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
			s.cache.purgeBelow(gen)
			return true
		}
	}
}

// UpdateCatalog applies a catalog/statistics mutation under the write lock
// — no optimization runs while mutate executes — and then invalidates the
// plan cache. The mutation must not retain the *catalog.Catalog.
func (s *Service) UpdateCatalog(mutate func(*catalog.Catalog) error) error {
	s.catMu.Lock()
	err := mutate(s.cat)
	s.catMu.Unlock()
	if err != nil {
		return err
	}
	s.Invalidate()
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
	s.m.observeOptimize(time.Since(t0), resp, err)
	return resp, err
}

func (s *Service) optimize(ctx context.Context, req Request) (*Response, error) {
	s.c.requests.Add(1)
	if s.draining.Load() {
		return nil, ErrDraining
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()

	q, err := s.bind(req)
	if err != nil {
		return nil, err
	}
	ckey, bkey := s.keys(q, req)
	if resp, ok := s.cache.get(ckey); ok {
		return resp, nil
	}
	resp, coalesced, err := s.cache.do(ctx, ckey, func() (*Response, error) {
		return s.optimizeLeader(ctx, q, req, bkey)
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
// retry, engine run. Its Response is shared with every coalesced follower
// and, when cacheable, stored under the request key.
func (s *Service) optimizeLeader(ctx context.Context, q *query.SPJ, req Request, bkey string) (*Response, error) {
	release, rung, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	br := s.breakers.get(bkey)
	now := s.clock()
	admitted, pinned := br.allow(now, s.cfg.Breaker)
	if !admitted {
		if pinned != nil {
			s.c.pinnedServes.Add(1)
			return &Response{Decision: pinned, Pinned: true, Pressure: rung.Name}, nil
		}
		return nil, fmt.Errorf("%w (configuration %q)", ErrCircuitOpen, bkey)
	}

	dec, err := s.runWithRetry(ctx, q, req, rung)
	if err != nil {
		if errors.Is(err, lec.ErrInternal) {
			if br.fail(s.clock(), s.cfg.Breaker) {
				s.breakerTripped()
			}
			// A freshly opened breaker can still pin this request.
			if _, pinned := br.allow(s.clock(), s.cfg.Breaker); pinned != nil {
				s.c.pinnedServes.Add(1)
				return &Response{Decision: pinned, Pinned: true, Pressure: rung.Name}, nil
			}
		} else {
			br.ok(nil)
		}
		return nil, err
	}
	if br.ok(dec) {
		s.breakerReset()
	}
	resp := &Response{Decision: dec, Pressure: rung.Name}
	if rung.Name != "" {
		s.c.pressureDegraded.Add(1)
	}
	return resp, nil
}

// effectiveParallelism sizes one admitted request's engine parallelism
// against the admission semaphore: the configured ceiling, clamped to
// 1 + the free worker slots at the moment the run starts. Each admitted
// request already holds one slot, so "free" slots are capacity other
// requests are not using; under full load the clamp is 1 and every run
// degrades to the sequential engine instead of oversubscribing the host
// with Workers × Parallelism goroutines. The reading is advisory — slots
// may free or fill while the run executes — but it is a safe upper bound
// at admission time, which is when the fan-out is decided.
func (s *Service) effectiveParallelism() int {
	p := s.cfg.Parallelism
	if free := cap(s.sem) - len(s.sem); p > 1+free {
		p = 1 + free
	}
	if p < 1 {
		p = 1
	}
	return p
}

// run executes one engine run under the catalog read lock, with the
// pressure rung's budget and tier floor folded into the configured
// options. Worker panics (including injected ones) surface as
// lec.ErrInternal so the breaker sees them.
func (s *Service) run(ctx context.Context, q *query.SPJ, req Request, rung Rung) (dec *lec.Decision, err error) {
	defer func() {
		if p := recover(); p != nil {
			dec, err = nil, fmt.Errorf("%w: serving worker panic: %v", lec.ErrInternal, p)
		}
	}()
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	faultinject.Check(faultinject.ServeOptimize)
	opts := s.cfg.Options
	opts.Budget = tightenBudget(opts.Budget, rung.Budget)
	opts.Tier = forceTier(opts.Tier, rung.Tier)
	opts.Parallelism = s.effectiveParallelism()
	s.c.optimizations.Add(1)
	dec, err = lec.NewWithOptions(s.cat, opts).OptimizeContext(ctx, q, req.Env, req.Strategy)
	if dec != nil {
		s.c.searchMu.Lock()
		s.c.search.Add(dec.Stats)
		s.c.searchMu.Unlock()
	}
	return dec, err
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
	s.m.observeRun(s.m.compareSeconds, time.Since(t0), anyDegraded(ds), err)
	return ds, err
}

func (s *Service) compare(ctx context.Context, req Request) ([]*lec.Decision, error) {
	s.c.requests.Add(1)
	if s.draining.Load() {
		return nil, ErrDraining
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	q, err := s.bind(req)
	if err != nil {
		return nil, err
	}
	release, rung, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	faultinject.Check(faultinject.ServeOptimize)
	opts := s.cfg.Options
	opts.Budget = tightenBudget(opts.Budget, rung.Budget)
	opts.Tier = forceTier(opts.Tier, rung.Tier)
	opts.Parallelism = s.effectiveParallelism()
	s.c.optimizations.Add(1)
	ds, err := lec.NewWithOptions(s.cat, opts).CompareContext(ctx, q, req.Env)
	for _, d := range ds {
		s.c.searchMu.Lock()
		s.c.search.Add(d.Stats)
		s.c.searchMu.Unlock()
	}
	return ds, err
}

// Trace serves one request with decision tracing enabled and returns the
// Decision, whose Trace field carries the per-subset DP record. It bypasses
// the plan cache and circuit breaker — a cached Decision has no trace, and
// a diagnostic read should observe the live configuration, not a pinned
// plan — but honors drain mode, the default timeout, and admission control
// (including the pressure ladder) like any other engine run.
func (s *Service) Trace(ctx context.Context, req Request) (*lec.Decision, error) {
	if s.m == nil {
		return s.traceRun(ctx, req)
	}
	t0 := time.Now()
	dec, err := s.traceRun(ctx, req)
	s.m.observeRun(s.m.traceSeconds, time.Since(t0), dec != nil && dec.Degraded, err)
	return dec, err
}

func (s *Service) traceRun(ctx context.Context, req Request) (dec *lec.Decision, err error) {
	s.c.requests.Add(1)
	if s.draining.Load() {
		return nil, ErrDraining
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	q, err := s.bind(req)
	if err != nil {
		return nil, err
	}
	release, rung, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer func() {
		if p := recover(); p != nil {
			dec, err = nil, fmt.Errorf("%w: serving worker panic: %v", lec.ErrInternal, p)
		}
	}()
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	faultinject.Check(faultinject.ServeOptimize)
	opts := s.cfg.Options
	opts.Budget = tightenBudget(opts.Budget, rung.Budget)
	// The trace IS the per-subset DP record; a greedy-served plan has none.
	// Diagnostic reads pin the DP tier so they always observe the search.
	opts.Tier = lec.TierDP
	opts.Parallelism = s.effectiveParallelism()
	opts.Trace = true
	s.c.optimizations.Add(1)
	dec, err = lec.NewWithOptions(s.cat, opts).OptimizeContext(ctx, q, req.Env, req.Strategy)
	if dec != nil {
		s.c.searchMu.Lock()
		s.c.search.Add(dec.Stats)
		s.c.searchMu.Unlock()
	}
	return dec, err
}

// bind resolves the request's query under the catalog read lock.
func (s *Service) bind(req Request) (*query.SPJ, error) {
	if req.Query != nil {
		return req.Query, nil
	}
	if req.SQL == "" {
		return nil, fmt.Errorf("%w: request needs SQL or a bound query", lec.ErrInvalidQuery)
	}
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	q, err := sqlparse.ParseAndBind(req.SQL, s.cat)
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

func (s *Service) withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
}

// keys derives the cache key (generation-scoped) and the breaker key
// (generation-free: a breaker guards a coster configuration, which a
// statistics refresh does not change) for one bound request.
func (s *Service) keys(q *query.SPJ, req Request) (ckey, bkey string) {
	bkey = requestKey(q, req.Strategy, req.Env)
	ckey = fmt.Sprintf("g%d|%s", s.gen.Load(), bkey)
	return ckey, bkey
}

// Canonicalize binds the request's query against the live catalog and
// returns the bound request plus its generation-free request key — the
// canonical (query, strategy, environment) identity the fleet layer hashes
// for cache-key ownership. The returned request carries the bound Query, so
// optimizing it later skips the re-parse.
func (s *Service) Canonicalize(req Request) (Request, string, error) {
	q, err := s.bind(req)
	if err != nil {
		return req, "", err
	}
	req.Query = q
	return req, requestKey(q, req.Strategy, req.Env), nil
}

// Pressure reports the live admission queue depth and whether it has
// reached the first pressure-ladder rung — the "this node is busy enough
// to start degrading budgets" signal the fleet layer uses as its hedging
// trigger.
func (s *Service) Pressure() (depth int, pressured bool) {
	depth = len(s.queue)
	for _, r := range s.cfg.Ladder {
		if depth >= r.Depth {
			return depth, true
		}
	}
	return depth, false
}

// QueueState reports the live admission queue as (depth, capacity,
// pressured). The fleet layer piggybacks the depth on every lookup reply
// so peers can hedge on the owner's actual load instead of only a fixed
// delay.
func (s *Service) QueueState() (depth, capacity int, pressured bool) {
	depth, pressured = s.Pressure()
	return depth, cap(s.queue), pressured
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Requests counts every Optimize/Compare call accepted or not.
	Requests int64
	// Optimizations counts actual engine runs (cache hits, coalesced
	// waits, pinned serves, and shed requests run zero).
	Optimizations int64
	// Cache counters.
	CacheHits, CacheMisses, Coalesced, Evictions, Invalidations int64
	// Shed counts requests rejected with ErrOverloaded.
	Shed int64
	// PressureDegraded counts responses served under a tightened budget.
	PressureDegraded int64
	// Retries counts backoff retries of transient failures.
	Retries int64
	// BreakerTrips / BreakerResets / PinnedServes are the circuit-breaker
	// counters.
	BreakerTrips, BreakerResets, PinnedServes int64
	// InFlight and QueueDepth are live gauges of the admission state.
	InFlight, QueueDepth int
	// ConfiguredParallelism is the per-request parallelism ceiling;
	// EffectiveParallelism is what a request admitted right now would get,
	// given the current free worker slots.
	ConfiguredParallelism, EffectiveParallelism int
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
		Retries:          s.c.retries.Load(),
		PinnedServes:     s.c.pinnedServes.Load(),
		InFlight:         len(s.sem),
		QueueDepth:       len(s.queue),
		Generation:       s.gen.Load(),
	}
	st.ConfiguredParallelism = s.cfg.Parallelism
	st.EffectiveParallelism = s.effectiveParallelism()
	st.Enumeration = s.cfg.Options.Enumeration.String()
	st.Tier = s.cfg.Options.Tier.String()
	st.CacheHits, st.CacheMisses, st.Coalesced, st.Evictions, st.Invalidations = s.cache.counters()
	st.BreakerTrips, st.BreakerResets = s.breakers.counts()
	s.c.searchMu.Lock()
	st.Search = s.c.search
	s.c.searchMu.Unlock()
	return st
}

func (s *Service) breakerTripped() {
	s.breakers.trips.Add(1)
	if s.m != nil {
		s.m.breakerTrips.Inc()
	}
}

func (s *Service) breakerReset() {
	s.breakers.resets.Add(1)
	if s.m != nil {
		s.m.breakerResets.Inc()
	}
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
