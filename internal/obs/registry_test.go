package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	c.Add(math.NaN())
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.0; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot().Histograms["h"]
	// sort.SearchFloat64s means a value equal to a bound lands in the
	// bucket with that bound: 0.5,1→le=1; 1.5→le=2; 3→le=4; 100→+Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "help")
	b := r.Counter("x", "other help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("c", "").Add(2)
	r2.Counter("c", "").Add(3)
	r1.Gauge("g", "").Set(1)
	r2.Gauge("g", "").Set(7)
	b := []float64{1, 10}
	r1.Histogram("h", "", b).Observe(0.5)
	r2.Histogram("h", "", b).Observe(5)
	r2.Counter("only2", "").Inc()

	s := r1.Snapshot()
	s.Merge(r2.Snapshot())
	if s.Counters["c"] != 5 {
		t.Fatalf("merged counter = %v, want 5", s.Counters["c"])
	}
	if s.Counters["only2"] != 1 {
		t.Fatalf("merged new counter = %v, want 1", s.Counters["only2"])
	}
	if s.Gauges["g"] != 7 {
		t.Fatalf("merged gauge = %v, want 7 (last wins)", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.").Add(42)
	r.Gauge("app_queue_depth", "Queued requests.").Set(3)
	r.GaugeFunc("app_live", "Live value.", func() float64 { return 9 })
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.",
		"# TYPE app_requests_total counter",
		"app_requests_total 42",
		"# TYPE app_queue_depth gauge",
		"app_queue_depth 3",
		"app_live 9",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two renders of the same state are identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("exposition output not deterministic")
	}
	// Families must appear sorted by name.
	iReq := strings.Index(out, "app_requests_total 42")
	iLat := strings.Index(out, "# TYPE app_latency_seconds")
	if iLat > iReq {
		t.Fatal("exposition not sorted by metric name")
	}
}

// TestCounterFunc: a counter function is a counter everywhere the registry
// reports — under Snapshot.Counters and as "# TYPE … counter" — and reads
// its source at each scrape.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var events float64 = 3
	r.CounterFunc("app_events_total", "Events seen.", func() float64 { return events })
	if got, ok := r.Snapshot().Counters["app_events_total"]; !ok || got != 3 {
		t.Fatalf("snapshot counter = %v (registered %v), want 3", got, ok)
	}
	events = 5
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP app_events_total Events seen.",
		"# TYPE app_events_total counter",
		"app_events_total 5",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q in:\n%s", want, sb.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter function as a counter did not panic")
		}
	}()
	r.Counter("app_events_total", "Events seen.")
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(0.5)
				h.Observe(2)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

// TestOptMetricsSeries pins the exact series NewOptMetrics registers: one
// per phase histogram, engine counter and tier outcome, and nothing a run
// cannot move.
func TestOptMetricsSeries(t *testing.T) {
	reg := NewRegistry()
	NewOptMetrics(reg)
	want := []string{
		"lec_opt_bucket_err_bound_total",
		"lec_opt_bucketing_seconds",
		"lec_opt_cost_evals_total",
		"lec_opt_costing_seconds",
		"lec_opt_degradations_total",
		"lec_opt_enumeration_seconds",
		"lec_opt_join_steps_total",
		"lec_opt_memo_hits_total",
		"lec_opt_nonfinite_costs_total",
		"lec_opt_panics_recovered_total",
		"lec_opt_prunes_total",
		"lec_opt_runs_total",
		"lec_opt_subsets_enumerated_total",
		"lec_opt_subsets_skipped_total",
		"lec_opt_subsets_total",
		"lec_tier_dp_seconds",
		"lec_tier_escalation_fault_total",
		"lec_tier_escalation_gap_total",
		"lec_tier_escalation_objective_total",
		"lec_tier_escalation_unplannable_total",
		"lec_tier_escalations_total",
		"lec_tier_greedy_seconds",
		"lec_tier_greedy_served_total",
		"lec_tier_regret",
	}
	var got []string
	for _, m := range reg.sorted() {
		got = append(got, m.name)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("NewOptMetrics registered\n  %s\nwant\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestNewOptMetricsNilRegistry(t *testing.T) {
	if NewOptMetrics(nil) != nil {
		t.Fatal("NewOptMetrics(nil) should be nil")
	}
	if NewReoptMetrics(nil) != nil {
		t.Fatal("NewReoptMetrics(nil) should be nil")
	}
}
