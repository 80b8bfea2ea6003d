package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is how many points each peer contributes to the hash ring. 128
// points per peer keeps the maximum ownership share of any node within a
// few percent of fair for small static fleets while the ring stays tiny
// (a 64-node fleet is 8192 points, one binary search per request).
const vnodes = 128

// ring is a consistent-hash ring over a static peer list. Every node
// builds the ring from the same sorted peer list, so ownership decisions
// agree fleet-wide without coordination: the owner of a key is the peer
// whose point is the first at or clockwise of the key's hash.
type ring struct {
	points []ringPoint // sorted ascending by hash
	peers  []string    // sorted, deduplicated
}

type ringPoint struct {
	h    uint64
	peer string
}

// newRing builds the ring. The peer list is sorted and deduplicated, so
// every fleet member constructs an identical ring regardless of the order
// its -peers flag listed them.
func newRing(peers []string) *ring {
	seen := make(map[string]bool, len(peers))
	r := &ring{}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
	}
	sort.Strings(r.peers)
	r.points = make([]ringPoint, 0, len(r.peers)*vnodes)
	for _, p := range r.peers {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: ringHash(fmt.Sprintf("%s|%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r
}

// ringHash is FNV-64a finished with a splitmix64-style avalanche. It must
// give every node the same point for a string, so it is not seeded. Raw
// FNV of short, similar strings (peer|i vnode labels, request keys that
// differ in a few bytes) clusters badly in the high bits sort.Search
// compares on — measured on a 3-peer ring it gave one node >55% of the
// keys at any vnode count; the finalizer brings every node within a few
// percent of fair.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owner returns the peer that owns the key: the first ring point at or
// clockwise of the key's hash (wrapping at the top).
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	i := r.at(key)
	return r.points[i].peer
}

// successor returns the first distinct peer clockwise of the key's owning
// point — the hedge target when the owner is slow or this node's queue is
// pressured. With fewer than two peers it returns the owner itself.
func (r *ring) successor(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	i := r.at(key)
	owner := r.points[i].peer
	for step := 1; step < len(r.points); step++ {
		p := r.points[(i+step)%len(r.points)].peer
		if p != owner {
			return p
		}
	}
	return owner
}

// sequence returns up to k distinct peers in ring order starting at the
// key's owning point. sequence(key, R) is the key's replica set under
// replicated ownership (the first element is the primary), and
// sequence(key, 2)[1] is the classic hedge successor.
func (r *ring) sequence(key string, k int) []string {
	if len(r.points) == 0 || k < 1 {
		return nil
	}
	if k > len(r.peers) {
		k = len(r.peers)
	}
	out := make([]string, 0, k)
	i := r.at(key)
	for step := 0; step < len(r.points) && len(out) < k; step++ {
		p := r.points[(i+step)%len(r.points)].peer
		if !containsPeer(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func containsPeer(list []string, p string) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

// at returns the index of the key's owning ring point.
func (r *ring) at(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// size returns the number of distinct peers on the ring.
func (r *ring) size() int { return len(r.peers) }
