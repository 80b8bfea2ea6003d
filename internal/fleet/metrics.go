package fleet

import (
	"sync/atomic"

	"repro/internal/obs"
)

// fleetMetrics is what the lec_fleet_* family records beyond the node's
// own counters: the propagation latency histogram. It is only built when
// fleet.New receives a registry, so a daemon running without -peers (or
// without -metrics) exposes no lec_fleet_* series at all — the fleet layer
// is provably free when disabled.
type fleetMetrics struct {
	propagateSeconds *obs.Histogram
}

// newFleetMetrics registers the lec_fleet_* family on reg: a counter
// function over each event counter Status reports, the live gauges, and
// the propagation histogram. Returns nil when reg is nil.
func newFleetMetrics(reg *obs.Registry, n *Node) *fleetMetrics {
	if reg == nil {
		return nil
	}
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"lec_fleet_peer_hits_total", "Requests answered from a peer's plan cache or coalesced run.", &n.c.peerHits},
		{"lec_fleet_peer_misses_total", "Requests whose peer path failed and fell back to the local run.", &n.c.peerMisses},
		{"lec_fleet_peer_hedges_total", "Hedge branches launched (slow owner or pressured local queue).", &n.c.hedges},
		{"lec_fleet_peer_hedge_wins_total", "Hedge branches that answered first.", &n.c.hedgeWins},
		{"lec_fleet_peer_drops_total", "Peer operations dropped by the network (partitions, timeouts, panics).", &n.c.drops},
		{"lec_fleet_stale_rejected_total", "Peer replies rejected for carrying an older catalog generation.", &n.c.staleRejected},
		{"lec_fleet_generation_adoptions_total", "Catalog generations adopted from peers.", &n.c.adoptions},
		{"lec_fleet_propagate_sent_total", "Generation propagations acknowledged by a peer.", &n.c.propagateSent},
		{"lec_fleet_propagate_failed_total", "Generation propagations dropped or failed.", &n.c.propagateFailed},

		{"lec_fleet_health_trips_total", "Peers moved to suspect by the failure detector.", &n.c.healthTrips},
		{"lec_fleet_health_probes_total", "Half-open probes admitted to suspected peers.", &n.c.healthProbes},
		{"lec_fleet_health_skips_total", "Chain peers skipped by routing while suspect.", &n.c.healthSkips},
		{"lec_fleet_failovers_total", "Lookups failed over to the next replica after a branch error.", &n.c.failovers},

		{"lec_fleet_membership_adoptions_total", "Membership views adopted from peers or proposals.", &n.c.membershipAdoptions},
		{"lec_fleet_membership_failed_total", "Membership exchanges with a peer that dropped, failed or panicked.", &n.c.membershipFailed},

		{"lec_fleet_handoff_sent_total", "Warm request keys delivered to peers (rebalance and replica pushes).", &n.c.handoffSent},
		{"lec_fleet_handoff_failed_total", "Warm-handoff batches dropped or failed.", &n.c.handoffFailed},
		{"lec_fleet_handoff_entries_total", "Handed-off request keys from peers replayed into the local cache (warm fills plus warm hits).", &n.c.handoffEntries},
		{"lec_fleet_warm_fills_total", "Handed-off keys replayed into a fresh local plan.", &n.c.warmFills},
		{"lec_fleet_warm_hits_total", "Handed-off keys already warm in the local cache.", &n.c.warmHits},
		{"lec_fleet_replica_pushes_total", "Fresh plans pushed to the key's other replicas as request keys.", &n.c.replicaPushes},

		{"lec_fleet_snapshot_saves_total", "Plan-cache snapshots written on drain.", &n.c.snapshotSaves},
		{"lec_fleet_snapshot_save_failures_total", "Plan-cache snapshot writes that failed.", &n.c.snapshotSaveFailures},
		{"lec_fleet_snapshot_loads_total", "Plan-cache snapshots loaded at boot.", &n.c.snapshotLoads},
		{"lec_fleet_snapshot_load_failures_total", "Snapshot loads abandoned (missing is not counted; corrupt or mismatched is).", &n.c.snapshotLoadFailures},
		{"lec_fleet_snapshot_replayed_total", "Snapshot entries successfully replayed into the plan cache.", &n.c.snapshotReplayed},
	} {
		reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.v.Load()) })
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
	return &fleetMetrics{
		propagateSeconds: reg.Histogram("lec_fleet_propagate_seconds", "Latency of one acknowledged generation propagation.", nil),
	}
}
