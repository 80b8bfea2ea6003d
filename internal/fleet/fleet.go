// Package fleet turns N serve.Services into one plan-serving cluster that
// is never worse than a single node. It applies the paper's discipline —
// plans chosen by expected cost must stay good across runtime conditions
// the optimizer cannot predict — to the system that serves those plans:
// peers partition the plan-cache key space by consistent hashing, route
// lookups to the owner before running any local dynamic program (so a
// fleet-wide stampede on one key runs exactly one DP in the whole
// cluster), propagate catalog-generation bumps so an invalidation is
// fleet-wide without a stampede, hedge slow lookups to the key's successor
// peer, and persist the plan cache across restarts.
//
// The robustness contract mirrors serve's: every failure of the *fleet*
// machinery — partition, slow peer, stale generation, peer panic, corrupt
// snapshot — degrades to the single-node path, visibly (counters,
// /clusterz) but never fatally. A request can fail for local reasons
// (invalid SQL, local overload, a dead context); it can never fail because
// a peer failed.
//
// Generations are a convergent maximum: every node's serve.Service counts
// its own invalidations, propagation pushes the number to every peer, and
// both lookup directions piggyback adoption (a responder behind the
// requester catches up before answering; a requester behind the responder
// adopts from the reply). Two concurrent invalidations at different nodes
// can land on the same number for different catalog states — the peer
// list is assumed to receive catalog mutations out of band (a config
// deploy), with the generation protocol carrying only the invalidation
// signal, exactly like serve's own generation-scoped cache keys.
//
// Membership is dynamic and follows the same convergent-maximum
// discipline: the peer list is an epoch-numbered view (membership.go)
// exchanged explicitly on join/leave and piggybacked on every lookup, so
// any contact between two nodes converges their rings. Routing is
// health-gated: a per-peer failure detector (health.go) skips suspected
// peers and fails over to the next replica instead of paying the lookup
// timeout, and a slow owner is hedged after a fixed delay. With
// Config.Replicas R > 1, each key is owned by R successive ring nodes:
// the primary serves the request path (preserving the one-DP-per-key
// invariant), fresh plans are pushed to the other replicas asynchronously
// as request keys they replay through their own optimizers, and a failed
// primary degrades the hit rate by ~1/R instead of cold-starting its
// whole range.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config tunes a fleet Node. Self and Transport are required when Peers
// names more than one node; the zero value of everything else gets
// defaults from withDefaults.
type Config struct {
	// Self is this node's identity in Peers.
	Self string
	// Peers is the initial fleet membership (the epoch-0 view). Order
	// does not matter; every node sorts the list before building its
	// ring. A joining node lists only seed peers — Self need not appear —
	// and calls JoinFleet to become a member. With fewer than two
	// distinct peers the node serves everything locally (a fleet of one
	// still gets snapshots).
	Peers []string
	// Transport moves lookups, propagations, membership exchanges, and
	// warm handoffs between peers.
	Transport Transport
	// Replicas is how many successive distinct ring nodes own each key
	// (R). The primary serves the request path; the others receive
	// asynchronous warm pushes of every fresh plan and take over —
	// already warm — when the primary is suspected or dead. Values ≤ 1
	// mean single ownership. Clamped to the fleet size at routing time.
	Replicas int
	// HedgeDelay is how long a peer lookup may run before a hedge is sent
	// to the key's successor peer; it also gates the pressured-queue
	// hedge. 0 means the 25ms default; negative disables hedging.
	HedgeDelay time.Duration
	// Health tunes the per-peer failure detector gating the routing.
	Health HealthConfig
	// SnapshotPath, when set, is where the plan-cache snapshot is saved
	// on drain and loaded from on warm start.
	SnapshotPath string
	// SnapshotLimit bounds the recorded warm set. Default 1024.
	SnapshotLimit int
	// Metrics, when non-nil, receives the lec_fleet_* instrument family.
	// Nil disables fleet metrics entirely (nothing is registered).
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines (snapshot
	// failures, propagation drops).
	Logf func(format string, args ...any)
}

// Bounds on one peer operation: a lookup, a generation propagation, or a
// membership exchange with one peer, and one warm-handoff batch.
const (
	lookupTimeout     = 2 * time.Second
	propagateTimeout  = 2 * time.Second
	membershipTimeout = 2 * time.Second
	handoffTimeout    = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	c.Health = c.Health.withDefaults()
	if c.SnapshotLimit <= 0 {
		c.SnapshotLimit = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one fleet member: a routing and replication layer over exactly
// one serve.Service. All methods are safe for concurrent use.
type Node struct {
	svc *serve.Service
	cfg Config

	mview   atomic.Pointer[view] // current membership (never nil)
	mshipMu sync.Mutex           // serializes view installs and proposals

	// flights is the requester-side single-flight over remote keys:
	// concurrent identical requests on this node share one peer lookup
	// instead of stampeding the owner with N wire calls.
	flights flight.Group[string, *Reply]

	warmMu  sync.Mutex
	warmSet map[string]struct{} // replayable request keys

	peerMu    sync.Mutex
	peerState map[string]*peerState

	clock func() time.Time // time.Now, stubbed by detector tests

	c counters
	m *fleetMetrics // nil when Config.Metrics is nil
}

// counters are the fleet's event counts: Status reports them, and with a
// registry each lec_fleet_*_total series reads one of them
// (newFleetMetrics), so an event is counted in one place.
type counters struct {
	peerHits        atomic.Int64
	peerMisses      atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	drops           atomic.Int64
	staleRejected   atomic.Int64
	adoptions       atomic.Int64
	propagateSent   atomic.Int64
	propagateFailed atomic.Int64

	healthTrips  atomic.Int64
	healthProbes atomic.Int64
	healthSkips  atomic.Int64
	failovers    atomic.Int64

	membershipAdoptions atomic.Int64
	membershipFailed    atomic.Int64

	handoffSent    atomic.Int64
	handoffFailed  atomic.Int64
	handoffEntries atomic.Int64
	warmFills      atomic.Int64
	warmHits       atomic.Int64
	replicaPushes  atomic.Int64

	snapshotSaves        atomic.Int64
	snapshotSaveFailures atomic.Int64
	snapshotLoads        atomic.Int64
	snapshotLoadFailures atomic.Int64
	snapshotReplayed     atomic.Int64
}

type peerState struct {
	lastError   string
	lastErrorAt time.Time
	lastOKAt    time.Time
	queueDepth  int // last admission queue depth the peer reported
	det         *detector
}

// New builds a fleet node over the service. The service must be the one
// the daemon serves: the node routes into it for every local computation.
func New(svc *serve.Service, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	v := newView(0, cfg.Peers)
	remote := false
	for _, p := range v.peers {
		if p != cfg.Self {
			remote = true
		}
	}
	if remote {
		if cfg.Self == "" {
			return nil, errors.New("fleet: Config.Self is required with peers")
		}
		if cfg.Transport == nil {
			return nil, errors.New("fleet: Config.Transport is required with peers")
		}
	}
	n := &Node{
		svc:       svc,
		cfg:       cfg,
		warmSet:   make(map[string]struct{}),
		peerState: make(map[string]*peerState),
		clock:     time.Now,
	}
	n.mview.Store(v)
	n.m = newFleetMetrics(cfg.Metrics, n)
	return n, nil
}

// Service returns the underlying serve.Service.
func (n *Node) Service() *serve.Service { return n.svc }

// Self returns this node's fleet identity.
func (n *Node) Self() string { return n.cfg.Self }

// Reply is one fleet-served response: exactly one of Local or Peer is set.
type Reply struct {
	// Local is set when this node's own service produced the answer
	// (it owned the key, every peer path failed, or a local hedge won).
	Local *serve.Response
	// Peer is set when a peer served the answer over the wire.
	Peer *WireResponse
	// PeerNode names the peer that answered (when Peer is set).
	PeerNode string
	// PeerHit reports the answer came from a peer.
	PeerHit bool
	// Hedged reports a hedge was launched for this request.
	Hedged bool
	// HedgeWon reports the hedge branch answered first.
	HedgeWon bool
	// FellBack reports the peer path failed and the answer came from the
	// single-node fallback.
	FellBack bool
	// Coalesced reports this request shared an identical in-flight fleet
	// lookup instead of issuing its own.
	Coalesced bool
	// SuspectsSkipped counts chain peers the failure detector gated out
	// of this request's routing.
	SuspectsSkipped int
}

// Degraded reports whether the served plan came from a degradation ladder.
func (r *Reply) Degraded() bool {
	if r.Local != nil && r.Local.Decision != nil {
		return r.Local.Decision.Degraded
	}
	if r.Peer != nil {
		return r.Peer.Decision.Degraded
	}
	return false
}

// Optimize serves one request through the fleet: canonicalize, hash the
// key to its replica chain, look up the first healthy replica's plan
// cache before any local DP, fail over replica-to-replica, hedge when the
// primary is slow or loaded, and fall back to the single-node path on any
// peer failure.
func (n *Node) Optimize(ctx context.Context, req serve.Request) (*Reply, error) {
	bound, key, err := n.svc.Canonicalize(req)
	if err != nil {
		return nil, err
	}
	v := n.view()
	if v.ring.size() < 2 {
		return n.localOnly(ctx, bound, key)
	}
	// The chain is the key's replica set plus — under single ownership —
	// the classic hedge successor. Members past the replica count are
	// hedge targets only, never failover targets.
	chainLen := n.cfg.Replicas
	if chainLen < 2 {
		chainLen = 2
	}
	chain := v.ring.sequence(key, chainLen)
	var pre, post []candidate
	skipped := 0
	selfIdx := -1
	for i, p := range chain {
		if p == n.cfg.Self {
			selfIdx = i
			continue
		}
		c := candidate{peer: p, replica: i < n.cfg.Replicas}
		if !n.allowPeer(p) {
			skipped++
			n.c.healthSkips.Add(1)
			continue
		}
		if selfIdx < 0 {
			pre = append(pre, c)
		} else {
			post = append(post, c)
		}
	}
	switch {
	case selfIdx >= 0 && len(pre) == 0:
		// This node is the first routable member of the chain — the
		// primary, or the replica standing in for a suspected primary.
		return n.ownerPath(ctx, bound, key, post, skipped)
	case len(pre) == 0:
		// Not in the chain and every member is suspect: the peer path is
		// not worth attempting.
		rep, err := n.localOnly(ctx, bound, key)
		if rep != nil {
			rep.FellBack = true
			rep.SuspectsSkipped = skipped
		}
		n.c.peerMisses.Add(1)
		return rep, err
	default:
		return n.remotePath(ctx, bound, key, pre, skipped)
	}
}

// candidate is one routable chain member: a replica may be failed over
// to, a hedge-tail successor only raced as a hedge.
type candidate struct {
	peer    string
	replica bool
}

// localOnly is the fleet-of-one path: straight through to the service,
// recording the warm set and pushing fresh plans to the key's replicas.
func (n *Node) localOnly(ctx context.Context, req serve.Request, key string) (*Reply, error) {
	resp, err := n.svc.Optimize(ctx, req)
	if err != nil {
		return nil, err
	}
	n.noteServed(key, resp)
	n.maybeReplicate(key, resp)
	return &Reply{Local: resp}, nil
}

// ownerPath serves a key this node is the first routable replica for.
// Under queue pressure it hedges the computation to the rest of the chain
// immediately — shedding latency, not correctness, since
// first-response-wins and the loser is cancelled.
func (n *Node) ownerPath(ctx context.Context, req serve.Request, key string, rest []candidate, skipped int) (*Reply, error) {
	if n.cfg.HedgeDelay > 0 && len(rest) > 0 {
		if _, pressured := n.svc.Pressure(); pressured {
			rep, err := n.race(ctx, req, key, true, rest)
			if rep != nil {
				rep.SuspectsSkipped = skipped
			}
			return rep, err
		}
	}
	rep, err := n.localOnly(ctx, req, key)
	if rep != nil {
		rep.SuspectsSkipped = skipped
	}
	return rep, err
}

// remotePath serves a key another node owns: requester-side single-flight
// over the peer lookup, then the race (lookup, failover, optional hedge
// after HedgeDelay, local fallback).
func (n *Node) remotePath(ctx context.Context, req serve.Request, key string, cands []candidate, skipped int) (*Reply, error) {
	r, coalesced, err := n.flights.Do(ctx, key, func() (*Reply, error) {
		rep, rerr := n.race(ctx, req, key, false, cands)
		if rep != nil {
			// Recorded before the single-flight publishes the reply:
			// coalesced followers copy it concurrently.
			rep.SuspectsSkipped = skipped
		}
		return rep, rerr
	})
	if coalesced && r != nil {
		cp := *r
		cp.Coalesced = true
		return &cp, err
	}
	return r, err
}

// branchOut is one race branch's outcome.
type branchOut struct {
	hedge bool
	local *serve.Response
	wire  *WireResponse
	node  string
	err   error
}

// race runs the primary branch — the first candidate's lookup, or this
// node's own computation when localPrimary — against failover and hedge
// branches drawn from the rest of the chain. First success wins and
// cancels the losers; a failed branch immediately launches the next
// *replica* candidate (failover) while the hedge timer may launch any
// next candidate, or this node itself, once. The hedge fires at once when
// the local branch is primary (ownerPath races only under queue pressure)
// and after HedgeDelay otherwise. If every branch fails the request falls
// back to a local run.
func (n *Node) race(ctx context.Context, req serve.Request, key string, localPrimary bool, cands []candidate) (*Reply, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan branchOut, len(cands)+2)
	pending := 0
	next := 0
	localLaunched := localPrimary
	launch := func(c candidate, hedge bool) {
		pending++
		go n.lookupBranch(rctx, c.peer, key, hedge, out)
	}
	if localPrimary {
		pending++
		go n.localBranch(rctx, req, key, false, out)
	} else {
		launch(cands[next], false)
		next++
	}

	hedgeable := n.cfg.HedgeDelay > 0 && (next < len(cands) || !localLaunched)
	var hedgeC <-chan time.Time
	if hedgeable && !localPrimary {
		timer := time.NewTimer(n.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	hedged := false
	launchHedge := func() {
		hedged = true
		hedgeable = false
		hedgeC = nil
		n.c.hedges.Add(1)
		if next < len(cands) {
			launch(cands[next], true)
			next++
		} else {
			localLaunched = true
			pending++
			go n.localBranch(rctx, req, key, true, out)
		}
	}
	if hedgeable && localPrimary {
		launchHedge()
	}

	var localErr, peerErr error
	for {
		select {
		case b := <-out:
			pending--
			if b.err == nil {
				cancel()
				return n.winner(b, key, hedged), nil
			}
			if b.local != nil {
				localErr = b.err
			} else {
				peerErr = b.err
			}
			// Failover: a failed branch tries the next replica right away
			// instead of waiting out a timer. Hedge-tail successors are
			// not failure targets — they are no closer to owning the key
			// than this node's own fallback.
			if b.local == nil && next < len(cands) && cands[next].replica {
				n.c.failovers.Add(1)
				launch(cands[next], false)
				next++
			}
			if pending == 0 {
				if localErr != nil {
					// A local branch already ran and genuinely failed;
					// that error is the request's, not a peer's.
					return nil, localErr
				}
				return n.fallback(ctx, req, key, hedged, peerErr)
			}
		case <-hedgeC:
			launchHedge()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// winner wraps the winning branch into a Reply, counting it.
func (n *Node) winner(b branchOut, key string, hedged bool) *Reply {
	r := &Reply{Hedged: hedged, HedgeWon: b.hedge}
	if b.hedge {
		n.c.hedgeWins.Add(1)
	}
	if b.local != nil {
		r.Local = b.local
		n.noteServed(key, b.local)
		n.maybeReplicate(key, b.local)
		return r
	}
	r.Peer = b.wire
	r.PeerNode = b.node
	r.PeerHit = true
	n.c.peerHits.Add(1)
	return r
}

// fallback is the end of every peer-failure path: a plain local run. It
// only fails for local reasons, preserving the contract that no request
// fails because a peer failed.
func (n *Node) fallback(ctx context.Context, req serve.Request, key string, hedged bool, cause error) (*Reply, error) {
	n.c.peerMisses.Add(1)
	n.cfg.Logf("fleet: peer path for key failed (%v); falling back to local run", cause)
	resp, err := n.svc.Optimize(ctx, req)
	if err != nil {
		return nil, err
	}
	n.noteServed(key, resp)
	return &Reply{Local: resp, Hedged: hedged, FellBack: true}, nil
}

// localBranch runs this node's own service as a race branch.
func (n *Node) localBranch(ctx context.Context, req serve.Request, key string, hedge bool, out chan<- branchOut) {
	resp, err := n.svc.Optimize(ctx, req)
	if err != nil {
		out <- branchOut{hedge: hedge, local: &serve.Response{}, err: err}
		return
	}
	out <- branchOut{hedge: hedge, local: resp}
}

// lookupBranch runs one peer lookup as a race branch, isolating panics:
// a peer (or transport) blowing up mid-call is a peer failure like any
// other, never the requester's crash.
func (n *Node) lookupBranch(ctx context.Context, peer, key string, hedge bool, out chan<- branchOut) {
	defer func() {
		if p := recover(); p != nil {
			n.c.drops.Add(1)
			n.notePeerDown(peer, fmt.Sprintf("panic: %v", p))
			out <- branchOut{hedge: hedge, node: peer, err: fmt.Errorf("%w: %s panicked: %v", ErrPeerUnreachable, peer, p)}
		}
	}()
	rep, err := n.lookup(ctx, peer, key, hedge)
	if err != nil {
		out <- branchOut{hedge: hedge, node: peer, err: err}
		return
	}
	out <- branchOut{hedge: hedge, wire: &rep.Resp, node: rep.Node}
}

// lookup sends one peer lookup and applies the generation protocol to the
// reply: reject older-generation answers (nudging the laggard with a
// propagate), adopt newer ones.
func (n *Node) lookup(ctx context.Context, peer, key string, hedge bool) (*LookupReply, error) {
	if faultinject.Check(faultinject.FleetPeerLookup) == faultinject.KindDrop {
		n.c.drops.Add(1)
		n.notePeerDown(peer, "injected partition")
		return nil, fmt.Errorf("%w: %s (injected partition)", ErrPeerUnreachable, peer)
	}
	wreq := &LookupRequest{
		Key:        key,
		Generation: n.svc.Generation(),
		Epoch:      n.Epoch(),
		From:       n.cfg.Self,
		Hedge:      hedge,
	}
	lctx, cancel := context.WithTimeout(ctx, lookupTimeout)
	defer cancel()
	rep, err := n.cfg.Transport.Lookup(lctx, peer, wreq)
	if err != nil {
		n.c.drops.Add(1)
		n.notePeerDown(peer, err.Error())
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnreachable, peer, err)
	}
	if rep.Epoch > n.Epoch() {
		go n.syncMembership(peer)
	}
	gen := n.svc.Generation()
	if rep.Generation < gen {
		n.c.staleRejected.Add(1)
		// A stale answer is a cache-coherence event, not a peer-health
		// one: it is recorded but does not feed the failure detector.
		n.notePeerIssue(peer, fmt.Sprintf("stale generation %d < %d", rep.Generation, gen))
		go n.propagateTo(peer, gen)
		return nil, fmt.Errorf("%w: %s answered at g%d, local is g%d", ErrStaleGeneration, peer, rep.Generation, gen)
	}
	if rep.Generation > gen {
		n.adopt(rep.Generation)
	}
	n.notePeerReply(peer, rep.QueueDepth)
	return rep, nil
}

// HandleLookup answers one incoming peer lookup: adopt any newer
// generation the requester carries, decode the request key and rebind it
// against the local catalog, and serve it through the local single-flight
// cache — which is the mechanism that keeps a fleet-wide stampede at one
// engine run.
func (n *Node) HandleLookup(ctx context.Context, req *LookupRequest) (*LookupReply, error) {
	if req.Generation > n.svc.Generation() {
		n.adopt(req.Generation)
	}
	if req.Epoch > n.Epoch() && req.From != "" {
		go n.syncMembership(req.From)
	}
	sreq, err := serve.DecodeKey(req.Key)
	if err != nil {
		return nil, err
	}
	bound, key, err := n.svc.Canonicalize(sreq)
	if err != nil {
		return nil, err
	}
	resp, err := n.svc.Optimize(ctx, bound)
	if err != nil {
		return nil, err
	}
	n.noteServed(key, resp)
	n.maybeReplicate(key, resp)
	depth, _ := n.svc.Pressure()
	return &LookupReply{
		Generation: n.svc.Generation(),
		Epoch:      n.Epoch(),
		Node:       n.cfg.Self,
		QueueDepth: depth,
		Resp:       ToWire(resp),
	}, nil
}

// maybeReplicate pushes the request key behind a freshly computed plan to
// the key's other replicas, asynchronously. Only a replica-set member
// pushes (a local fallback on a non-owner does not), and only fresh
// engine runs do — cached, coalesced, pinned, and degraded serves carry
// nothing worth propagating. Replicas replay the key through their own
// optimizer; plans never cross the wire into a cache.
func (n *Node) maybeReplicate(key string, resp *serve.Response) {
	if n.cfg.Replicas < 2 {
		return
	}
	if resp == nil || resp.Decision == nil || resp.Cached || resp.Coalesced || resp.Pinned || resp.Decision.Degraded {
		return
	}
	v := n.view()
	if v.ring.size() < 2 {
		return
	}
	reps := v.ring.sequence(key, n.cfg.Replicas)
	if !containsPeer(reps, n.cfg.Self) {
		return
	}
	for _, p := range reps {
		if p == n.cfg.Self {
			continue
		}
		n.c.replicaPushes.Add(1)
		go n.sendWarm(p, []string{key})
	}
}

// HandlePropagate adopts an incoming generation bump and returns the
// local generation afterward (which is higher when this node was ahead —
// the sender adopts in turn). Receivers never re-propagate: the origin
// notifies every peer directly, so a bump costs N-1 messages, not a
// gossip storm.
func (n *Node) HandlePropagate(gen uint64) uint64 {
	n.adopt(gen)
	return n.svc.Generation()
}

func (n *Node) adopt(gen uint64) {
	if n.svc.AdoptGeneration(gen) {
		n.c.adoptions.Add(1)
	}
}

// Invalidate bumps the local catalog generation and propagates the bump
// to every peer, waiting for the acknowledgements (bounded by
// propagateTimeout each). Dropped propagations leave that peer stale —
// which the lookup protocol detects and repairs on the next contact.
func (n *Node) Invalidate() uint64 {
	n.svc.Invalidate()
	gen := n.svc.Generation()
	n.propagate(gen)
	return gen
}

// UpdateCatalog applies a catalog mutation locally (see
// serve.Service.UpdateCatalog) and propagates the generation bump.
func (n *Node) UpdateCatalog(mutate func(*catalog.Catalog) error) error {
	if err := n.svc.UpdateCatalog(mutate); err != nil {
		return err
	}
	n.propagate(n.svc.Generation())
	return nil
}

func (n *Node) propagate(gen uint64) {
	var wg sync.WaitGroup
	for _, p := range n.view().ring.peers {
		if p == n.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			n.propagateTo(p, gen)
		}(p)
	}
	wg.Wait()
}

// propagateTo pushes one generation bump to one peer, observing the
// propagation latency and adopting back when the peer is ahead.
func (n *Node) propagateTo(peer string, gen uint64) {
	defer func() {
		if p := recover(); p != nil {
			n.c.propagateFailed.Add(1)
			n.notePeerDown(peer, fmt.Sprintf("propagate panic: %v", p))
		}
	}()
	if faultinject.Check(faultinject.FleetPropagate) == faultinject.KindDrop {
		n.c.drops.Add(1)
		n.c.propagateFailed.Add(1)
		n.notePeerDown(peer, "propagate dropped (injected partition)")
		n.cfg.Logf("fleet: generation %d propagation to %s dropped", gen, peer)
		return
	}
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), propagateTimeout)
	defer cancel()
	peerGen, err := n.cfg.Transport.Propagate(ctx, peer, gen)
	if err != nil {
		n.c.propagateFailed.Add(1)
		n.notePeerDown(peer, err.Error())
		n.cfg.Logf("fleet: generation %d propagation to %s failed: %v", gen, peer, err)
		return
	}
	n.c.propagateSent.Add(1)
	if n.m != nil {
		n.m.propagateSeconds.Observe(time.Since(t0).Seconds())
	}
	n.notePeerOK(peer)
	if peerGen > gen {
		n.adopt(peerGen)
	}
}

// peerSt returns (creating if needed) the peer's state; peerMu must be held.
func (n *Node) peerSt(peer string) *peerState {
	st := n.peerState[peer]
	if st == nil {
		st = &peerState{det: newDetector(n.cfg.Health)}
		n.peerState[peer] = st
	}
	return st
}

// notePeerDown records a failed operation against the peer and feeds the
// failure detector; a trip moves the peer to suspect and routing starts
// skipping it.
func (n *Node) notePeerDown(peer, msg string) {
	now := n.clock()
	n.peerMu.Lock()
	st := n.peerSt(peer)
	st.lastError = msg
	st.lastErrorAt = now
	tripped := st.det.fail(now)
	n.peerMu.Unlock()
	if tripped {
		n.c.healthTrips.Add(1)
		n.cfg.Logf("fleet: peer %s suspected: %s", peer, msg)
	}
}

// notePeerIssue records a diagnostic error that is not a health signal
// (a stale-generation answer: the peer responded, its cache just lags).
func (n *Node) notePeerIssue(peer, msg string) {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	st := n.peerSt(peer)
	st.lastError = msg
	st.lastErrorAt = n.clock()
}

func (n *Node) notePeerOK(peer string) {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	st := n.peerSt(peer)
	st.lastOKAt = n.clock()
	st.det.ok()
}

// notePeerReply is notePeerOK plus the queue depth the lookup reply
// piggybacked, which Status reports.
func (n *Node) notePeerReply(peer string, queueDepth int) {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	st := n.peerSt(peer)
	st.lastOKAt = n.clock()
	st.queueDepth = queueDepth
	st.det.ok()
}

// allowPeer asks the failure detector whether routing may use the peer
// right now; admitting the single half-open probe counts it.
func (n *Node) allowPeer(peer string) bool {
	now := n.clock()
	n.peerMu.Lock()
	ok, probe := n.peerSt(peer).det.allow(now)
	n.peerMu.Unlock()
	if probe {
		n.c.healthProbes.Add(1)
	}
	return ok
}
