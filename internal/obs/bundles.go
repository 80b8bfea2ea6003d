package obs

// OptMetrics bundles the search engine's registry instruments so the hot
// paths in internal/opt pay one pointer dereference per record instead of a
// registry lookup. A nil *OptMetrics disables all recording. Safe for
// concurrent use across engines sharing one bundle.
type OptMetrics struct {
	// Per-phase wall time of one optimization run, in seconds. Enumeration
	// is total run time minus costing and bucketing.
	EnumerationSeconds *Histogram
	CostingSeconds     *Histogram
	BucketingSeconds   *Histogram

	// Counter mirrors of the engine's per-run Counters deltas.
	Runs            *Counter
	CostEvals       *Counter
	Prunes          *Counter
	MemoHits        *Counter
	Subsets         *Counter
	JoinSteps       *Counter
	NonFiniteCosts  *Counter
	Degradations    *Counter
	PanicsRecovered *Counter

	// Enumerator instruments: subsets the lattice enumerator emitted to the
	// search, and subsets the connected enumerator pruned as disconnected.
	// skipped / (enumerated + skipped) is the pruning fraction per shape.
	SubsetsEnumerated *Counter
	SubsetsSkipped    *Counter

	// BucketErrBound accumulates the equi-depth spread bound Σ p·(hi−lo)
	// over every distribution bucketed during optimization (the paper's
	// discretization error; refining buckets can only shrink it).
	BucketErrBound *Counter

	// Tier is the tiered-planning bundle (nil when the registry is nil).
	Tier *TierMetrics
}

// TierMetrics instruments the tiered optimizer: how often the greedy tier
// served, why escalations to the DP happened, per-tier planning latency, and
// the realized regret of the greedy plan when both tiers ran. The registry
// has no label support, so the escalation reason is encoded in the metric
// name.
type TierMetrics struct {
	GreedyServed *Counter
	Escalations  *Counter

	// Per-reason escalation counters (see opt's tier reason strings).
	EscalationGap         *Counter
	EscalationObjective   *Counter
	EscalationFault       *Counter
	EscalationUnplannable *Counter

	// Planning latency per tier: the greedy attempt's wall time (recorded
	// whether it served or escalated) and, on escalation, the DP's wall time.
	GreedySeconds *Histogram
	DPSeconds     *Histogram

	// Regret is greedyCost/dpCost − 1, observed only on escalations where
	// both costs are finite — how much worse the greedy plan would have been.
	Regret *Histogram
}

// newTierMetrics registers the tiered-planning metric family on reg.
func newTierMetrics(reg *Registry, phase []float64) *TierMetrics {
	// Regret is a ratio, not a latency; buckets cover "free" through 100×.
	regret := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 100}
	return &TierMetrics{
		GreedyServed:          reg.Counter("lec_tier_greedy_served_total", "Optimizations served by the greedy tier without finishing the DP (low-risk, forced or certified at a DP level)."),
		Escalations:           reg.Counter("lec_tier_escalations_total", "Optimizations escalated from the greedy tier that ended on the DP."),
		EscalationGap:         reg.Counter("lec_tier_escalation_gap_total", "Escalations triggered by the expected-cost gap vs the lower bound."),
		EscalationObjective:   reg.Counter("lec_tier_escalation_objective_total", "Escalations because the configured objective/coster has no greedy scoring."),
		EscalationFault:       reg.Counter("lec_tier_escalation_fault_total", "Escalations because the greedy planner faulted (panic, NaN/Inf, cancellation)."),
		EscalationUnplannable: reg.Counter("lec_tier_escalation_unplannable_total", "Escalations because the greedy planner found no admissible plan."),
		GreedySeconds:         reg.Histogram("lec_tier_greedy_seconds", "Greedy-tier planning latency per attempt.", phase),
		DPSeconds:             reg.Histogram("lec_tier_dp_seconds", "DP planning latency per escalated optimization.", phase),
		Regret:                reg.Histogram("lec_tier_regret", "Greedy-vs-DP realized regret (greedy/dp − 1) on escalations.", regret),
	}
}

// NewOptMetrics registers the optimizer's metric family on reg. Returns nil
// when reg is nil, so callers can pass the result around unconditionally.
func NewOptMetrics(reg *Registry) *OptMetrics {
	if reg == nil {
		return nil
	}
	// Search phases are fast; extend the latency buckets downward.
	phase := []float64{0.000001, 0.00001, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	return &OptMetrics{
		EnumerationSeconds: reg.Histogram("lec_opt_enumeration_seconds", "Plan enumeration time per optimization run (total minus costing; bucketing time is inside costing).", phase),
		CostingSeconds:     reg.Histogram("lec_opt_costing_seconds", "Cost-formula evaluation time per optimization run.", phase),
		BucketingSeconds:   reg.Histogram("lec_opt_bucketing_seconds", "Distribution bucketing/convolution time per optimization run.", phase),
		Runs:               reg.Counter("lec_opt_runs_total", "Optimization runs completed."),
		CostEvals:          reg.Counter("lec_opt_cost_evals_total", "Cost-formula evaluations."),
		Prunes:             reg.Counter("lec_opt_prunes_total", "Candidate plans pruned by the DP."),
		MemoHits:           reg.Counter("lec_opt_memo_hits_total", "Memo-table hits for subset size distributions."),
		Subsets:            reg.Counter("lec_opt_subsets_total", "Relation subsets visited by the DP."),
		SubsetsEnumerated:  reg.Counter("lec_opt_subsets_enumerated_total", "Relation subsets emitted by the lattice enumerator."),
		SubsetsSkipped:     reg.Counter("lec_opt_subsets_skipped_total", "Relation subsets pruned by the connected enumerator as disconnected."),
		JoinSteps:          reg.Counter("lec_opt_join_steps_total", "Join steps priced."),
		NonFiniteCosts:     reg.Counter("lec_opt_nonfinite_costs_total", "Cost evaluations that produced NaN or Inf."),
		Degradations:       reg.Counter("lec_opt_degradations_total", "Optimizations that returned a degraded (fallback) plan."),
		PanicsRecovered:    reg.Counter("lec_opt_panics_recovered_total", "Panics recovered inside the search engine."),
		BucketErrBound:     reg.Counter("lec_opt_bucket_err_bound_total", "Accumulated equi-depth bucketing spread bound (page I/Os)."),
		Tier:               newTierMetrics(reg, phase),
	}
}

// ReoptMetrics instruments the [KD98] re-optimization baseline.
type ReoptMetrics struct {
	Runs         *Counter
	Restarts     *Counter
	SunkIO       *Counter
	DegradedRuns *Counter
}

// NewReoptMetrics registers the re-optimization metric family on reg.
// Returns nil when reg is nil.
func NewReoptMetrics(reg *Registry) *ReoptMetrics {
	if reg == nil {
		return nil
	}
	return &ReoptMetrics{
		Runs:         reg.Counter("lec_reopt_runs_total", "Adaptive executions simulated."),
		Restarts:     reg.Counter("lec_reopt_restarts_total", "Mid-execution restarts triggered by deviation."),
		SunkIO:       reg.Counter("lec_reopt_sunk_io_total", "Page I/Os discarded by restarts."),
		DegradedRuns: reg.Counter("lec_reopt_degraded_runs_total", "Adaptive executions cut short by context cancellation."),
	}
}

// CalibMetrics instruments the closed-loop calibration harness
// (internal/calib): per-round error medians and feedback volumes.
type CalibMetrics struct {
	Rounds        *Counter
	Queries       *Counter
	ReplayedSteps *Counter
	MemBound      *Counter
	QErrMedian    *Gauge
	PErrMedian    *Gauge
	ModelErr      *Gauge
}

// NewCalibMetrics registers the calibration metric family on reg. Returns
// nil when reg is nil; a nil *CalibMetrics disables all recording.
func NewCalibMetrics(reg *Registry) *CalibMetrics {
	if reg == nil {
		return nil
	}
	return &CalibMetrics{
		Rounds:        reg.Counter("lec_calib_rounds_total", "Calibration rounds measured."),
		Queries:       reg.Counter("lec_calib_queries_total", "Query executions measured across rounds."),
		ReplayedSteps: reg.Counter("lec_calib_replayed_steps_total", "Join steps replayed through the buffer pool."),
		MemBound:      reg.Counter("lec_calib_mem_bound_total", "Accumulated bucketing-error bound of memory-posterior updates."),
		QErrMedian:    reg.Gauge("lec_calib_qerr_median", "Median plan q-error of the latest round."),
		PErrMedian:    reg.Gauge("lec_calib_perr_median", "Median P-error of the latest round."),
		ModelErr:      reg.Gauge("lec_calib_model_err", "Mean relative cost-model error of the latest round."),
	}
}

// RecordRound records one calibration round. Safe on a nil receiver.
func (m *CalibMetrics) RecordRound(qerrMedian, perrMedian, modelErr, memBound float64, queries, steps int) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	m.Queries.Add(float64(queries))
	m.ReplayedSteps.Add(float64(steps))
	m.MemBound.Add(memBound)
	m.QErrMedian.Set(qerrMedian)
	m.PErrMedian.Set(perrMedian)
	m.ModelErr.Set(modelErr)
}
