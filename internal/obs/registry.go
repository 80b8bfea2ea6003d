// Package obs is the observability layer: a zero-dependency metrics
// registry (atomic counters, gauges, fixed-bucket histograms with
// snapshot/merge) and a structured decision-trace recorder for the search
// engine. The registry renders itself in the Prometheus text exposition
// format (prom.go); the trace renders as a human-readable explain tree
// (trace.go).
//
// Everything here is stdlib-only and safe for concurrent use. The design
// rule is that disabled instrumentation costs the hot paths a single nil
// check: packages accept a *Registry (or a metric bundle built from one)
// and skip all recording when it is nil.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 counter. Float-valued so it
// can carry accumulated quantities (seconds, page I/Os, error bounds) as
// well as event counts — which is also what the Prometheus data model uses.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram: observations are
// counted into the first bucket whose upper bound is ≥ the value, plus a
// +Inf overflow bucket, with a running sum — the Prometheus histogram
// model. Bounds are fixed at registration; Observe is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Counter
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all (non-negative) observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// LatencyBuckets are the default histogram bounds for durations in
// seconds: 100µs up to 10s, roughly geometric.
func LatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// metricKind distinguishes registry entries for the exposition writer.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument.
type metric struct {
	name string
	help string
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	fn        func() float64 // counter or gauge function
	histogram *Histogram
}

// Registry holds named metrics. Registration is idempotent: asking for an
// existing name of the same kind returns the existing instrument, so
// independent components can share one registry without coordination.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name, help string, kind metricKind) *metric {
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{name: name, help: help, kind: kind}
		r.metrics[name] = m
		return m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered twice with different kinds", name))
	}
	return m
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// CounterFunc registers a counter read at scrape time from a total the
// caller already keeps (an atomic its own status report reads), so one
// event is counted once. fn must be monotone. Re-registering replaces the
// function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindCounterFunc).fn = fn
}

// GaugeFunc registers a gauge computed at scrape time — live values like a
// queue depth or goroutine count. Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindGaugeFunc).fn = fn
}

// Histogram returns the named histogram, registering it with the given
// ascending bucket bounds on first use (nil bounds means LatencyBuckets).
// Later lookups ignore the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, kindHistogram)
	if m.histogram == nil {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
			}
		}
		m.histogram = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return m.histogram
}

// sorted returns the registered metrics ordered by name — the deterministic
// iteration order of the exposition writer and Snapshot.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// HistogramSnapshot is a Histogram frozen at a point in time.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (exclusive of the implicit +Inf).
	Bounds []float64
	// Counts are per-bucket (non-cumulative) observation counts; the last
	// entry is the +Inf overflow bucket, so len(Counts) == len(Bounds)+1.
	Counts []uint64
	// Sum and Count aggregate all observations.
	Sum   float64
	Count uint64
}

// Snapshot is a point-in-time copy of a registry's values, mergeable across
// registries (e.g. per-worker registries folded into one for export).
type Snapshot struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot freezes the registry's current values. Counter and gauge
// functions are evaluated.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			s.Counters[m.name] = m.counter.Value()
		case kindCounterFunc:
			s.Counters[m.name] = m.fn()
		case kindGauge:
			s.Gauges[m.name] = m.gauge.Value()
		case kindGaugeFunc:
			s.Gauges[m.name] = m.fn()
		case kindHistogram:
			h := HistogramSnapshot{
				Bounds: append([]float64(nil), m.histogram.bounds...),
				Counts: make([]uint64, len(m.histogram.counts)),
				Sum:    m.histogram.Sum(),
				Count:  m.histogram.Count(),
			}
			for i := range m.histogram.counts {
				h.Counts[i] = m.histogram.counts[i].Load()
			}
			s.Histograms[m.name] = h
		}
	}
	return s
}

// Merge folds other into s: counters and histograms add, gauges take
// other's value (last writer wins). Histograms with mismatched bounds are
// skipped — merging them would misattribute observations.
func (s *Snapshot) Merge(other Snapshot) {
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] = v
	}
	for name, oh := range other.Histograms {
		h, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistogramSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: append([]uint64(nil), oh.Counts...),
				Sum:    oh.Sum,
				Count:  oh.Count,
			}
			continue
		}
		if !equalBounds(h.Bounds, oh.Bounds) {
			continue
		}
		for i := range h.Counts {
			h.Counts[i] += oh.Counts[i]
		}
		h.Sum += oh.Sum
		h.Count += oh.Count
		s.Histograms[name] = h
	}
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
