package serve

import (
	"sync/atomic"

	"repro/internal/obs"
)

// serveMetrics is what the lec_serve_* family records beyond the service's
// own counters: the end-to-end latency histograms. A nil *serveMetrics (no
// Config.Metrics registry) disables recording; the request paths pay one
// nil check.
type serveMetrics struct {
	optimizeSeconds *obs.Histogram
	compareSeconds  *obs.Histogram
	traceSeconds    *obs.Histogram
}

// newServeMetrics registers the service metric family on reg: a counter
// function over each event counter Stats reports, so an event is counted
// in one place, the live admission gauges, and the latency histograms.
// Returns nil when reg is nil.
func newServeMetrics(reg *obs.Registry, s *Service) *serveMetrics {
	if reg == nil {
		return nil
	}
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"lec_serve_requests_total", "Requests received (accepted or not).", &s.c.requests},
		{"lec_serve_optimizations_total", "Engine runs executed (Optimize leaders, Compare, Trace).", &s.c.optimizations},
		{"lec_serve_shed_total", "Requests shed by admission control.", &s.c.shed},
		{"lec_serve_pressured_total", "Optimize leader runs served under a tightened pressure-ladder budget.", &s.c.pressureDegraded},
		{"lec_serve_degraded_total", "Engine runs that returned a plan from the engine's degradation ladder.", &s.c.degraded},
		{"lec_serve_pinned_total", "Last-good plans served while a breaker was open.", &s.c.pinnedServes},
		{"lec_serve_cache_hits_total", "Plan-cache hits.", &s.cache.hits},
		{"lec_serve_cache_misses_total", "Plan-cache misses (single-flight leader runs).", &s.cache.misses},
		{"lec_serve_coalesced_total", "Requests coalesced into an identical in-flight run.", &s.cache.coalesced},
		{"lec_serve_cache_evictions_total", "Plan-cache entries evicted by the LRU bound.", &s.cache.evictions},
		{"lec_serve_cache_invalidations_total", "Plan-cache entries purged by a generation bump.", &s.cache.invalidations},
		{"lec_serve_breaker_trips_total", "Circuit-breaker open transitions.", &s.breakers.trips},
		{"lec_serve_breaker_resets_total", "Circuit-breaker close transitions.", &s.breakers.resets},
	} {
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.v.Load()) })
	}
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
	}
}
