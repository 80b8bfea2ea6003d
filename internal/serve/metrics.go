package serve

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/lec"
)

// serveMetrics is the service's registry-backed instrument bundle. A nil
// *serveMetrics (no Config.Metrics registry) disables all recording; the
// request paths pay one nil check. It holds the series that count per
// response; a series that counts the same event as a Stats field reads
// that field instead (newServeMetrics).
type serveMetrics struct {
	optimizeSeconds *obs.Histogram
	compareSeconds  *obs.Histogram
	traceSeconds    *obs.Histogram

	shed        *obs.Counter
	pressured   *obs.Counter
	degraded    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	coalesced   *obs.Counter
	pinned      *obs.Counter
}

// newServeMetrics registers the service metric family on reg and hooks the
// live admission gauges and the per-event counters to the service. Returns
// nil when reg is nil.
func newServeMetrics(reg *obs.Registry, s *Service) *serveMetrics {
	if reg == nil {
		return nil
	}
	reg.CounterFunc("lec_serve_requests_total", "Requests received (accepted or not).",
		func() float64 { return float64(s.c.requests.Load()) })
	reg.CounterFunc("lec_serve_breaker_trips_total", "Circuit-breaker open transitions.",
		func() float64 { return float64(s.breakers.trips.Load()) })
	reg.CounterFunc("lec_serve_breaker_resets_total", "Circuit-breaker close transitions.",
		func() float64 { return float64(s.breakers.resets.Load()) })
	reg.GaugeFunc("lec_serve_queue_depth", "Requests waiting for a worker slot.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("lec_serve_inflight", "Optimizations currently holding a worker slot.",
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("lec_serve_generation", "Current catalog/statistics generation.",
		func() float64 { return float64(s.gen.Load()) })
	reg.GaugeFunc("lec_serve_draining", "1 while the service is draining, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	return &serveMetrics{
		optimizeSeconds: reg.Histogram("lec_serve_optimize_seconds", "End-to-end Optimize latency (cache hits included).", nil),
		compareSeconds:  reg.Histogram("lec_serve_compare_seconds", "End-to-end Compare latency.", nil),
		traceSeconds:    reg.Histogram("lec_serve_trace_seconds", "End-to-end Trace latency.", nil),
		shed:            reg.Counter("lec_serve_shed_total", "Requests shed by admission control."),
		pressured:       reg.Counter("lec_serve_pressured_total", "Responses served under a tightened pressure-ladder budget."),
		degraded:        reg.Counter("lec_serve_degraded_total", "Responses whose plan came from the engine's degradation ladder."),
		cacheHits:       reg.Counter("lec_serve_cache_hits_total", "Plan-cache hits."),
		cacheMisses:     reg.Counter("lec_serve_cache_misses_total", "Plan-cache misses (leader runs)."),
		coalesced:       reg.Counter("lec_serve_coalesced_total", "Requests coalesced into an identical in-flight run."),
		pinned:          reg.Counter("lec_serve_pinned_total", "Last-good plans served while a breaker was open."),
	}
}

// observeOptimize records one Optimize outcome.
func (m *serveMetrics) observeOptimize(elapsed time.Duration, resp *Response, err error) {
	if m == nil {
		return
	}
	m.optimizeSeconds.Observe(elapsed.Seconds())
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			m.shed.Inc()
		}
		return
	}
	switch {
	case resp.Cached:
		m.cacheHits.Inc()
	case resp.Coalesced:
		m.coalesced.Inc()
	default:
		m.cacheMisses.Inc()
	}
	if resp.Pinned {
		m.pinned.Inc()
	}
	if resp.Pressure != "" {
		m.pressured.Inc()
	}
	if resp.Decision != nil && resp.Decision.Degraded {
		m.degraded.Inc()
	}
}

// observeRun records one cache-bypassing run (Compare, Trace) on the given
// latency histogram.
func (m *serveMetrics) observeRun(h *obs.Histogram, elapsed time.Duration, degraded bool, err error) {
	if m == nil {
		return
	}
	h.Observe(elapsed.Seconds())
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			m.shed.Inc()
		}
		return
	}
	if degraded {
		m.degraded.Inc()
	}
}

// anyDegraded reports whether any decision in a Compare result degraded.
func anyDegraded(ds []*lec.Decision) bool {
	for _, d := range ds {
		if d != nil && d.Degraded {
			return true
		}
	}
	return false
}
