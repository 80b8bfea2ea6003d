package fleet

import "time"

// PeerStatus is one ring member's health as seen from this node: the last
// error/success timestamps plus the failure detector's live verdict,
// windowed error rate, and the peer's last-reported admission queue depth
// — the inputs health-gated routing acts on, and the load each peer
// reported.
type PeerStatus struct {
	Name      string `json:"name"`
	Self      bool   `json:"self,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// LastErrorAt / LastOKAt are RFC 3339 timestamps, empty when the event
	// has not happened.
	LastErrorAt string `json:"last_error_at,omitempty"`
	LastOKAt    string `json:"last_ok_at,omitempty"`
	// State is the failure detector's verdict: healthy, suspect, or
	// probing (self is always healthy).
	State string `json:"state"`
	// ErrorRate is the sliding-window error rate in [0, 1].
	ErrorRate float64 `json:"error_rate"`
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// QueueDepth is the peer's last-reported admission queue depth
	// (live for self).
	QueueDepth int `json:"queue_depth"`
}

// Status is a point-in-time snapshot of the fleet layer, served by the
// daemon's /clusterz endpoint.
type Status struct {
	Self            string       `json:"self"`
	Peers           []PeerStatus `json:"peers"`
	Generation      uint64       `json:"generation"`
	MembershipEpoch uint64       `json:"membership_epoch"`
	Replicas        int          `json:"replicas"`

	PeerHits        int64 `json:"peer_hits"`
	PeerMisses      int64 `json:"peer_misses"`
	Hedges          int64 `json:"hedges"`
	HedgeWins       int64 `json:"hedge_wins"`
	Drops           int64 `json:"drops"`
	StaleRejected   int64 `json:"stale_rejected"`
	Adoptions       int64 `json:"adoptions"`
	PropagateSent   int64 `json:"propagate_sent"`
	PropagateFailed int64 `json:"propagate_failed"`

	HealthTrips  int64 `json:"health_trips"`
	HealthProbes int64 `json:"health_probes"`
	HealthSkips  int64 `json:"health_skips"`
	Failovers    int64 `json:"failovers"`

	MembershipAdoptions int64 `json:"membership_adoptions"`
	MembershipFailed    int64 `json:"membership_failed"`

	HandoffSent    int64 `json:"handoff_sent"`
	HandoffFailed  int64 `json:"handoff_failed"`
	HandoffEntries int64 `json:"handoff_entries"`
	WarmFills      int64 `json:"warm_fills"`
	WarmHits       int64 `json:"warm_hits"`
	ReplicaPushes  int64 `json:"replica_pushes"`

	SnapshotSaves        int64  `json:"snapshot_saves"`
	SnapshotSaveFailures int64  `json:"snapshot_save_failures"`
	SnapshotLoads        int64  `json:"snapshot_loads"`
	SnapshotLoadFailures int64  `json:"snapshot_load_failures"`
	SnapshotReplayed     int64  `json:"snapshot_replayed"`
	WarmSetSize          int    `json:"warm_set_size"`
	SnapshotPath         string `json:"snapshot_path,omitempty"`
}

// Status snapshots the fleet counters and per-peer health.
func (n *Node) Status() Status {
	v := n.view()
	st := Status{
		Self:            n.cfg.Self,
		Generation:      n.svc.Generation(),
		MembershipEpoch: v.epoch,
		Replicas:        n.cfg.Replicas,

		PeerHits:        n.c.peerHits.Load(),
		PeerMisses:      n.c.peerMisses.Load(),
		Hedges:          n.c.hedges.Load(),
		HedgeWins:       n.c.hedgeWins.Load(),
		Drops:           n.c.drops.Load(),
		StaleRejected:   n.c.staleRejected.Load(),
		Adoptions:       n.c.adoptions.Load(),
		PropagateSent:   n.c.propagateSent.Load(),
		PropagateFailed: n.c.propagateFailed.Load(),

		HealthTrips:  n.c.healthTrips.Load(),
		HealthProbes: n.c.healthProbes.Load(),
		HealthSkips:  n.c.healthSkips.Load(),
		Failovers:    n.c.failovers.Load(),

		MembershipAdoptions: n.c.membershipAdoptions.Load(),
		MembershipFailed:    n.c.membershipFailed.Load(),

		HandoffSent:    n.c.handoffSent.Load(),
		HandoffFailed:  n.c.handoffFailed.Load(),
		HandoffEntries: n.c.handoffEntries.Load(),
		WarmFills:      n.c.warmFills.Load(),
		WarmHits:       n.c.warmHits.Load(),
		ReplicaPushes:  n.c.replicaPushes.Load(),

		SnapshotSaves:        n.c.snapshotSaves.Load(),
		SnapshotSaveFailures: n.c.snapshotSaveFailures.Load(),
		SnapshotLoads:        n.c.snapshotLoads.Load(),
		SnapshotLoadFailures: n.c.snapshotLoadFailures.Load(),
		SnapshotReplayed:     n.c.snapshotReplayed.Load(),
		WarmSetSize:          n.WarmSetSize(),
		SnapshotPath:         n.cfg.SnapshotPath,
	}
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	for _, p := range v.ring.peers {
		ps := PeerStatus{Name: p, Self: p == n.cfg.Self, State: detHealthy.String()}
		if ps.Self {
			ps.QueueDepth, _ = n.svc.Pressure()
		} else if s := n.peerState[p]; s != nil {
			ps.LastError = s.lastError
			if !s.lastErrorAt.IsZero() {
				ps.LastErrorAt = s.lastErrorAt.Format(time.RFC3339Nano)
			}
			if !s.lastOKAt.IsZero() {
				ps.LastOKAt = s.lastOKAt.Format(time.RFC3339Nano)
			}
			ps.State = s.det.state.String()
			ps.ErrorRate = s.det.errorRate()
			ps.ConsecutiveFailures = s.det.consecutive
			ps.QueueDepth = s.queueDepth
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
