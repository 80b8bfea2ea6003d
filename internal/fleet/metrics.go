package fleet

import "repro/internal/obs"

// fleetMetrics is the lec_fleet_* instrument family. It is only built when
// fleet.New receives a registry, so a daemon running without -peers (or
// without -metrics) exposes no lec_fleet_* series at all — the fleet layer
// is provably free when disabled.
type fleetMetrics struct {
	peerHits         *obs.Counter
	peerMisses       *obs.Counter
	hedges           *obs.Counter
	hedgeWins        *obs.Counter
	drops            *obs.Counter
	staleRejected    *obs.Counter
	adoptions        *obs.Counter
	propagateSent    *obs.Counter
	propagateFailed  *obs.Counter
	propagateSeconds *obs.Histogram

	healthTrips  *obs.Counter
	healthProbes *obs.Counter
	healthSkips  *obs.Counter
	failovers    *obs.Counter

	membershipAdoptions *obs.Counter

	handoffSent   *obs.Counter
	handoffFailed *obs.Counter
	warmFills     *obs.Counter
	warmHits      *obs.Counter
	replicaPushes *obs.Counter

	snapshotSaves        *obs.Counter
	snapshotSaveFailures *obs.Counter
	snapshotLoads        *obs.Counter
	snapshotLoadFailures *obs.Counter
	snapshotReplayed     *obs.Counter
}

func newFleetMetrics(reg *obs.Registry, n *Node) *fleetMetrics {
	if reg == nil {
		return nil
	}
	m := &fleetMetrics{
		peerHits:         reg.Counter("lec_fleet_peer_hits_total", "Requests answered from a peer's plan cache or coalesced run."),
		peerMisses:       reg.Counter("lec_fleet_peer_misses_total", "Requests whose peer path failed and fell back to the local run."),
		hedges:           reg.Counter("lec_fleet_peer_hedges_total", "Hedge branches launched (slow owner or pressured local queue)."),
		hedgeWins:        reg.Counter("lec_fleet_peer_hedge_wins_total", "Hedge branches that answered first."),
		drops:            reg.Counter("lec_fleet_peer_drops_total", "Peer operations dropped by the network (partitions, timeouts, panics)."),
		staleRejected:    reg.Counter("lec_fleet_stale_rejected_total", "Peer replies rejected for carrying an older catalog generation."),
		adoptions:        reg.Counter("lec_fleet_generation_adoptions_total", "Catalog generations adopted from peers."),
		propagateSent:    reg.Counter("lec_fleet_propagate_sent_total", "Generation propagations acknowledged by a peer."),
		propagateFailed:  reg.Counter("lec_fleet_propagate_failed_total", "Generation propagations dropped or failed."),
		propagateSeconds: reg.Histogram("lec_fleet_propagate_seconds", "Latency of one acknowledged generation propagation.", nil),

		healthTrips:  reg.Counter("lec_fleet_health_trips_total", "Peers moved to suspect by the failure detector."),
		healthProbes: reg.Counter("lec_fleet_health_probes_total", "Half-open probes admitted to suspected peers."),
		healthSkips:  reg.Counter("lec_fleet_health_skips_total", "Chain peers skipped by routing while suspect."),
		failovers:    reg.Counter("lec_fleet_failovers_total", "Lookups failed over to the next replica after a branch error."),

		membershipAdoptions: reg.Counter("lec_fleet_membership_adoptions_total", "Membership views adopted from peers or proposals."),

		handoffSent:   reg.Counter("lec_fleet_handoff_sent_total", "Warm request keys delivered to peers (rebalance and replica pushes)."),
		handoffFailed: reg.Counter("lec_fleet_handoff_failed_total", "Warm-handoff batches dropped or failed."),
		warmFills:     reg.Counter("lec_fleet_warm_fills_total", "Handed-off keys replayed into a fresh local plan."),
		warmHits:      reg.Counter("lec_fleet_warm_hits_total", "Handed-off keys already warm in the local cache."),
		replicaPushes: reg.Counter("lec_fleet_replica_pushes_total", "Fresh plans pushed to the key's other replicas as request keys."),

		snapshotSaves:        reg.Counter("lec_fleet_snapshot_saves_total", "Plan-cache snapshots written on drain."),
		snapshotSaveFailures: reg.Counter("lec_fleet_snapshot_save_failures_total", "Plan-cache snapshot writes that failed."),
		snapshotLoads:        reg.Counter("lec_fleet_snapshot_loads_total", "Plan-cache snapshots loaded at boot."),
		snapshotLoadFailures: reg.Counter("lec_fleet_snapshot_load_failures_total", "Snapshot loads abandoned (missing is not counted; corrupt or mismatched is)."),
		snapshotReplayed:     reg.Counter("lec_fleet_snapshot_replayed_total", "Snapshot entries successfully replayed into the plan cache."),
	}
	reg.GaugeFunc("lec_fleet_peers", "Distinct peers on this node's hash ring.", func() float64 {
		return float64(n.view().ring.size())
	})
	reg.GaugeFunc("lec_fleet_membership_epoch", "Current membership view epoch.", func() float64 {
		return float64(n.Epoch())
	})
	reg.GaugeFunc("lec_fleet_warm_set_size", "Request keys recorded for snapshots, handoff, and replication.", func() float64 {
		return float64(n.WarmSetSize())
	})
	return m
}
