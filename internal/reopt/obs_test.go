package reopt

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/workload"
)

// TestOutcomeStatsAccumulateAcrossRestarts is the regression test for the
// restart-loop counter under-reporting: with one restart, the Outcome's
// engine counters must equal the SUM of the initial optimization's and the
// re-optimization's counters — not just the last run's.
func TestOutcomeStatsAccumulateAcrossRestarts(t *testing.T) {
	cat, q, _ := workload.Example11()
	// Assumed 2000, observed 200: deviation 0.9 > 0.5 at phase 0 forces
	// exactly one restart (see TestRestartTriggersOnDeviation).
	out, err := Run(cat, q, opt.Options{}, 2000, eval.Trace{200, 200}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", out.Restarts)
	}

	first, err := opt.SystemR(cat, q, opt.Options{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	second, err := opt.SystemR(cat, q, opt.Options{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Count
	want.Add(second.Count)
	if out.Stats != want {
		t.Errorf("Outcome.Stats = %+v,\nwant the sum of both runs %+v", out.Stats, want)
	}
	if out.Stats.CostEvals <= first.Count.CostEvals {
		t.Errorf("Stats.CostEvals %d not above the single initial run's %d — restart work dropped",
			out.Stats.CostEvals, first.Count.CostEvals)
	}
}

// TestReoptMetricsRecord: the optional metrics bundle observes runs,
// restarts, and sunk I/O consistently with the returned Outcome.
func TestReoptMetricsRecord(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewReoptMetrics(reg)
	cat, q, _ := workload.Example11()
	out, err := Run(cat, q, opt.Options{}, 2000, eval.Trace{200, 200}, Policy{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Runs.Value(); got != 1 {
		t.Errorf("runs counter = %v, want 1", got)
	}
	if got := m.Restarts.Value(); got != float64(out.Restarts) {
		t.Errorf("restarts counter = %v, want %d", got, out.Restarts)
	}
	if got := m.SunkIO.Value(); got != out.Sunk {
		t.Errorf("sunk I/O counter = %v, want %v", got, out.Sunk)
	}

	// Nil metrics must stay a no-op (no panic) and not change the outcome.
	out2, err := Run(cat, q, opt.Options{}, 2000, eval.Trace{200, 200}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Total != out.Total || out2.Stats != out.Stats {
		t.Errorf("metrics wiring changed the outcome: %+v vs %+v", out2, out)
	}
}
