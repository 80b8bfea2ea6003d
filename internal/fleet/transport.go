package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/serve"
)

// ErrPeerUnreachable reports a peer lookup or propagation that the network
// dropped — a partition, a dead peer, a refused connection. It is always a
// recoverable condition: the caller falls back to the single-node path.
var ErrPeerUnreachable = errors.New("fleet: peer unreachable")

// ErrStaleGeneration reports a peer answer produced under an older catalog
// generation than this node's. The answer is discarded and the request
// falls back to a local run; the laggard peer is nudged with a propagate.
var ErrStaleGeneration = errors.New("fleet: stale peer generation")

// Transport moves fleet messages between peers. Implementations must be
// safe for concurrent use. The fault-injection sites (fleet/peer-lookup,
// fleet/propagate, fleet/membership, fleet/handoff) live in the Node
// above the transport, so every implementation — loopback or HTTP — sees
// the same fault matrix.
type Transport interface {
	// Lookup asks peer for its answer to the request: a cached plan if it
	// has one, a freshly coalesced optimization if not.
	Lookup(ctx context.Context, peer string, req *LookupRequest) (*LookupReply, error)
	// Propagate tells peer the catalog generation has reached gen. It
	// returns the peer's generation after adoption, which may be higher
	// than gen — the caller then adopts in turn (anti-entropy).
	Propagate(ctx context.Context, peer string, gen uint64) (peerGen uint64, err error)
	// Membership exchanges epoch-numbered peer-list views with peer: the
	// peer adopts msg when newer and replies with its own view.
	Membership(ctx context.Context, peer string, msg *MembershipMsg) (*MembershipMsg, error)
	// Handoff delivers a batch of warm request keys for peer to replay
	// through its own optimizer, returning how many entries it accepted.
	Handoff(ctx context.Context, peer string, req *HandoffRequest) (accepted int, err error)
}

// HandoffRequest is one warm-handoff batch on the wire: request keys —
// never plans — that the receiver decodes and replays through its own
// optimizer. It carries both rebalance transfers (membership changes) and
// asynchronous replica pushes.
type HandoffRequest struct {
	From  string
	Epoch uint64
	Keys  []string
}

// HandoffReply acknowledges a handoff batch.
type HandoffReply struct {
	Accepted int
}

// LookupRequest is one peer plan lookup on the wire. Its key is the whole
// request, not a digest of it: the owner answers from its cache when it
// can and runs (single-flighted) the optimization when it cannot, which is
// what keeps a fleet-wide stampede at exactly one engine run.
type LookupRequest struct {
	// Key is the request key (serve.Service.Canonicalize), which the owner
	// decodes, rebinds and re-keys against its own catalog.
	Key string
	// Generation is the requester's catalog generation; a responder that
	// is behind adopts it before answering.
	Generation uint64
	// Epoch is the requester's membership epoch; a responder that is
	// behind syncs views with From in the background.
	Epoch uint64
	// From is the requester's fleet identity (the sync target).
	From string
	// Hedge marks a hedged lookup sent to a non-owner (diagnostic only).
	Hedge bool
}

// LookupReply is a peer's answer.
type LookupReply struct {
	// Generation the responder answered under. The requester rejects
	// replies older than its own generation and adopts newer ones.
	Generation uint64
	// Epoch is the responder's membership epoch; a requester that is
	// behind syncs views in the background.
	Epoch uint64
	// Node is the responder's identity.
	Node string
	// QueueDepth is the responder's admission queue depth at answer time,
	// which the requester's Status (/clusterz) reports.
	QueueDepth int
	// Resp is the responder's serve response, flattened for the wire.
	Resp WireResponse
}

// WireDecision is a lec.Decision flattened for the wire: everything a
// serving client consumes, with the plan as its rendered explain tree.
type WireDecision struct {
	Strategy      string
	ExpectedCost  float64
	StdDev        float64
	P95           float64
	Degraded      bool
	DegradeReason string
	DegradeRung   string
	Tier          string
	TierReason    string
	TierGap       float64
	Plan          string
}

// WireResponse is a serve.Response flattened for the wire.
type WireResponse struct {
	Decision  WireDecision
	Cached    bool
	Coalesced bool
	Pinned    bool
	Pressure  string
}

// ToWire flattens a serve.Response for the wire.
func ToWire(r *serve.Response) WireResponse {
	out := WireResponse{Cached: r.Cached, Coalesced: r.Coalesced, Pinned: r.Pinned, Pressure: r.Pressure}
	if d := r.Decision; d != nil {
		out.Decision = WireDecision{
			Strategy:     d.Strategy.String(),
			ExpectedCost: d.ExpectedCost,
			StdDev:       d.Risk.StdDev,
			P95:          d.Risk.P95,
			Degraded:     d.Degraded,
			DegradeRung:  d.DegradeRung,
			Tier:         d.Tier,
			TierReason:   d.TierReason,
			Plan:         d.Explain(),
		}
		if !math.IsNaN(d.TierGap) && !math.IsInf(d.TierGap, 0) && d.TierGap > 0 {
			out.Decision.TierGap = d.TierGap
		}
		if d.Degraded {
			out.Decision.DegradeReason = d.DegradeReason.String()
		}
	}
	return out
}

// Loopback is the in-process transport for tests and single-binary
// clusters: peers are Nodes registered under their names, and a lookup is
// a direct method call. A name with no registered node is unreachable —
// which is also how a test simulates a permanently dead peer.
type Loopback struct {
	mu    sync.RWMutex
	nodes map[string]*Node
}

// NewLoopback returns an empty loopback fabric.
func NewLoopback() *Loopback {
	return &Loopback{nodes: make(map[string]*Node)}
}

// Register attaches a node under its fleet name.
func (l *Loopback) Register(name string, n *Node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodes[name] = n
}

// Deregister detaches a node: the name becomes unreachable, which is how
// a chaos test kills a peer without stopping its goroutines first.
func (l *Loopback) Deregister(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.nodes, name)
}

func (l *Loopback) node(name string) (*Node, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	n, ok := l.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrPeerUnreachable, name)
	}
	return n, nil
}

// Lookup implements Transport.
func (l *Loopback) Lookup(ctx context.Context, peer string, req *LookupRequest) (*LookupReply, error) {
	n, err := l.node(peer)
	if err != nil {
		return nil, err
	}
	return n.HandleLookup(ctx, req)
}

// Propagate implements Transport.
func (l *Loopback) Propagate(ctx context.Context, peer string, gen uint64) (uint64, error) {
	n, err := l.node(peer)
	if err != nil {
		return 0, err
	}
	return n.HandlePropagate(gen), nil
}

// Membership implements Transport.
func (l *Loopback) Membership(ctx context.Context, peer string, msg *MembershipMsg) (*MembershipMsg, error) {
	n, err := l.node(peer)
	if err != nil {
		return nil, err
	}
	return n.HandleMembership(msg), nil
}

// Handoff implements Transport.
func (l *Loopback) Handoff(ctx context.Context, peer string, req *HandoffRequest) (int, error) {
	n, err := l.node(peer)
	if err != nil {
		return 0, err
	}
	return n.HandleHandoff(ctx, req), nil
}
