package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/faultinject"
)

// view is one immutable membership snapshot: an epoch-numbered peer list
// and the ring built from it. Views converge fleet-wide as a maximum —
// the same discipline as catalog generations — ordered by (epoch,
// fingerprint); the fingerprint tie-break makes two concurrent proposals
// at the same epoch resolve to one deterministic winner everywhere.
type view struct {
	epoch uint64
	fp    uint64
	peers []string // sorted, deduplicated (the ring's canonical list)
	ring  *ring
}

func newView(epoch uint64, peers []string) *view {
	r := newRing(peers)
	return &view{epoch: epoch, fp: listFingerprint(r.peers), peers: r.peers, ring: r}
}

func listFingerprint(peers []string) uint64 {
	h := uint64(0)
	for _, p := range peers {
		h = h*1099511628211 + ringHash(p)
	}
	return h
}

// newer reports whether v supersedes o.
func (v *view) newer(o *view) bool {
	if v.epoch != o.epoch {
		return v.epoch > o.epoch
	}
	return v.fp > o.fp
}

func (v *view) has(peer string) bool { return containsPeer(v.peers, peer) }

// MembershipMsg is one membership exchange on the wire: each side sends
// its view and adopts the other's when strictly newer, so any contact
// between two nodes converges them.
type MembershipMsg struct {
	Epoch uint64
	Peers []string
	From  string
}

// view returns the current membership view (never nil).
func (n *Node) view() *view { return n.mview.Load() }

// Epoch returns the current membership epoch (0 until the first change).
func (n *Node) Epoch() uint64 { return n.view().epoch }

// Peers returns the current membership list, sorted.
func (n *Node) Peers() []string {
	v := n.view()
	out := make([]string, len(v.peers))
	copy(out, v.peers)
	return out
}

// adoptView installs the (epoch, peers) view if it is strictly newer than
// the current one, rebalancing asynchronously: warm keys whose replica
// set gained members are handed off to them. It reports whether the view
// was adopted.
func (n *Node) adoptView(epoch uint64, peers []string) bool {
	cand := newView(epoch, peers)
	if len(cand.peers) == 0 {
		return false
	}
	n.mshipMu.Lock()
	cur := n.view()
	if !cand.newer(cur) {
		n.mshipMu.Unlock()
		return false
	}
	n.mview.Store(cand)
	n.mshipMu.Unlock()
	n.c.membershipAdoptions.Add(1)
	if n.m != nil {
		n.m.membershipAdoptions.Inc()
	}
	n.cfg.Logf("fleet: adopted membership epoch %d: %v", cand.epoch, cand.peers)
	go n.handoffForView(cur, cand)
	return true
}

// propose installs a new view at epoch+1 with the given peer list and
// announces it to every node in the union of the old and new lists.
func (n *Node) propose(ctx context.Context, peers []string) *view {
	n.mshipMu.Lock()
	cur := n.view()
	next := newView(cur.epoch+1, peers)
	n.mview.Store(next)
	n.mshipMu.Unlock()
	n.cfg.Logf("fleet: proposed membership epoch %d: %v", next.epoch, next.peers)
	go n.handoffForView(cur, next)

	targets := append(append([]string{}, cur.peers...), next.peers...)
	sort.Strings(targets)
	var wg sync.WaitGroup
	seen := ""
	for _, p := range targets {
		if p == n.cfg.Self || p == seen {
			continue
		}
		seen = p
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			n.exchangeMembership(ctx, p)
		}(p)
	}
	wg.Wait()
	return next
}

// JoinFleet makes this node a live member: it syncs views with its seed
// peers (Config.Peers need not include Self), then — unless a seed's view
// already lists it — proposes the current view plus itself and announces
// the new epoch. The seeds' adoption triggers warm-set handoff of every
// key this node now owns or replicates, so its first requests for
// inherited keys are cache hits. It returns an error only when no seed
// was reachable and the node is not already a member.
func (n *Node) JoinFleet(ctx context.Context) error {
	v := n.view()
	var lastErr error
	reached := false
	for _, p := range v.peers {
		if p == n.cfg.Self {
			continue
		}
		if _, err := n.exchangeMembership(ctx, p); err != nil {
			lastErr = err
			continue
		}
		reached = true
	}
	v = n.view()
	if v.has(n.cfg.Self) {
		// Already a member (a restart rejoining, or a seed's view listed
		// us): the sync above is all that was needed.
		return nil
	}
	if !reached && lastErr != nil {
		return fmt.Errorf("fleet: join: no seed reachable: %w", lastErr)
	}
	n.propose(ctx, append(append([]string{}, v.peers...), n.cfg.Self))
	return nil
}

// LeaveFleet removes this node from the membership: warm keys are handed
// off to their new owners (via the proposal's rebalance on every peer,
// plus this node's own handoff of the keys it held), and the node keeps
// serving as a proxy — routing to the remaining members, falling back
// locally — until the caller drains it.
func (n *Node) LeaveFleet(ctx context.Context) {
	v := n.view()
	if !v.has(n.cfg.Self) || len(v.peers) < 2 {
		return
	}
	rest := make([]string, 0, len(v.peers)-1)
	for _, p := range v.peers {
		if p != n.cfg.Self {
			rest = append(rest, p)
		}
	}
	n.propose(ctx, rest)
}

// HandleMembership answers one incoming membership exchange: adopt the
// sender's view when newer, reply with the local view (newer when this
// node was ahead — the sender adopts in turn).
func (n *Node) HandleMembership(msg *MembershipMsg) *MembershipMsg {
	if msg != nil && len(msg.Peers) > 0 {
		n.adoptView(msg.Epoch, msg.Peers)
	}
	v := n.view()
	return &MembershipMsg{Epoch: v.epoch, Peers: v.peers, From: n.cfg.Self}
}

// exchangeMembership sends this node's view to peer and adopts the reply
// when newer. It is the one primitive under join, leave announcements,
// and piggyback-triggered syncs.
func (n *Node) exchangeMembership(ctx context.Context, peer string) (rep *MembershipMsg, err error) {
	defer func() {
		if p := recover(); p != nil {
			n.c.membershipFailed.Add(1)
			n.cfg.Logf("fleet: membership exchange with %s panicked: %v", peer, p)
			rep, err = nil, fmt.Errorf("%w: %s panicked: %v", ErrPeerUnreachable, peer, p)
		}
	}()
	if faultinject.Check(faultinject.FleetMembership) == faultinject.KindDrop {
		n.c.drops.Add(1)
		n.c.membershipFailed.Add(1)
		if n.m != nil {
			n.m.drops.Inc()
		}
		n.cfg.Logf("fleet: membership exchange with %s dropped (injected partition)", peer)
		return nil, fmt.Errorf("%w: %s (injected partition)", ErrPeerUnreachable, peer)
	}
	v := n.view()
	mctx, cancel := context.WithTimeout(ctx, n.cfg.MembershipTimeout)
	defer cancel()
	rep, err = n.cfg.Transport.Membership(mctx, peer, &MembershipMsg{Epoch: v.epoch, Peers: v.peers, From: n.cfg.Self})
	if err != nil {
		n.c.membershipFailed.Add(1)
		n.notePeerDown(peer, err.Error())
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnreachable, peer, err)
	}
	n.notePeerOK(peer)
	if rep != nil && len(rep.Peers) > 0 {
		n.adoptView(rep.Epoch, rep.Peers)
	}
	return rep, nil
}

// syncMembership is the piggyback repair path: a lookup that revealed a
// newer epoch on either side triggers one background exchange.
func (n *Node) syncMembership(peer string) {
	n.exchangeMembership(context.Background(), peer)
}

// handoffForView pushes warm request specs to the peers that entered a
// key's replica set in the transition old→next — the new owner of a
// rebalanced range, or the freshly joined replicas. Specs, never plans,
// cross the wire: the receiver replays them through its own optimizer.
func (n *Node) handoffForView(old, next *view) {
	r := n.cfg.Replicas
	if r < 1 {
		r = 1
	}
	targets := make(map[string][]WarmSpec)
	n.warmMu.Lock()
	for key, spec := range n.warmSet {
		newSet := next.ring.sequence(key, r)
		oldSet := old.ring.sequence(key, r)
		for _, p := range newSet {
			if p == n.cfg.Self || containsPeer(oldSet, p) {
				continue
			}
			targets[p] = append(targets[p], spec)
		}
	}
	n.warmMu.Unlock()
	for p, specs := range targets {
		go n.sendWarm(p, specs)
	}
}

// sendWarm delivers one warm-handoff batch to one peer. Losing it costs
// warmth, never correctness — the receiver just serves cold — so a drop
// or error is counted and logged, nothing retries.
func (n *Node) sendWarm(peer string, specs []WarmSpec) {
	defer func() {
		if p := recover(); p != nil {
			n.c.handoffFailed.Add(1)
			n.cfg.Logf("fleet: warm handoff to %s panicked: %v", peer, p)
		}
	}()
	if faultinject.Check(faultinject.FleetHandoff) == faultinject.KindDrop {
		n.c.drops.Add(1)
		n.c.handoffFailed.Add(1)
		if n.m != nil {
			n.m.drops.Inc()
			n.m.handoffFailed.Inc()
		}
		n.cfg.Logf("fleet: warm handoff of %d specs to %s dropped (injected partition)", len(specs), peer)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.HandoffTimeout)
	defer cancel()
	v := n.view()
	req := &HandoffRequest{From: n.cfg.Self, Epoch: v.epoch, Entries: specs}
	if _, err := n.cfg.Transport.Handoff(ctx, peer, req); err != nil {
		n.c.handoffFailed.Add(1)
		if n.m != nil {
			n.m.handoffFailed.Inc()
		}
		n.notePeerDown(peer, err.Error())
		n.cfg.Logf("fleet: warm handoff of %d specs to %s failed: %v", len(specs), peer, err)
		return
	}
	n.c.handoffSent.Add(int64(len(specs)))
	if n.m != nil {
		n.m.handoffSent.Add(float64(len(specs)))
	}
	n.notePeerOK(peer)
}

// HandleHandoff replays one incoming warm-handoff batch through the local
// optimizer, returning how many entries were accepted. An entry that is
// already cached is a warm hit; one that runs the engine is a warm fill —
// the counters the chaos suite uses to separate replication work from
// request-path DPs.
func (n *Node) HandleHandoff(ctx context.Context, req *HandoffRequest) int {
	accepted := 0
	for _, spec := range req.Entries {
		sreq, err := spec.toServe()
		if err != nil {
			n.cfg.Logf("fleet: handoff entry from %s skipped: %v", req.From, err)
			continue
		}
		bound, key, err := n.svc.Canonicalize(sreq)
		if err != nil {
			n.cfg.Logf("fleet: handoff entry from %s no longer binds: %v", req.From, err)
			continue
		}
		rctx := ctx
		var cancel context.CancelFunc = func() {}
		if n.cfg.ReplayTimeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, n.cfg.ReplayTimeout)
		}
		resp, err := n.svc.Optimize(rctx, bound)
		cancel()
		if err != nil {
			n.cfg.Logf("fleet: handoff entry from %s replay failed: %v", req.From, err)
			continue
		}
		n.noteServed(key, bound, resp)
		if resp.Cached || resp.Coalesced {
			n.c.warmHits.Add(1)
			if n.m != nil {
				n.m.warmHits.Inc()
			}
		} else {
			n.c.warmFills.Add(1)
			if n.m != nil {
				n.m.warmFills.Inc()
			}
		}
		accepted++
	}
	n.c.handoffEntries.Add(int64(accepted))
	return accepted
}
