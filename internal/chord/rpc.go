// Package chord is a complete implementation of the Chord distributed
// hash table (Stoica et al., SIGCOMM 2001) over the simulated network in
// internal/simnet: 64-bit identifiers, finger tables, iterative
// find-successor routing, successor lists, and the join / stabilize /
// notify / fix-fingers / check-predecessor maintenance protocol.
//
// It is the "standard DHT" substrate assumed by King & Saia's paper: it
// provides h (a routed lookup costing O(log n) sequential RPCs) and next
// (one successor pointer chase) with real message counts, via the
// shared dht.DHT adapter (overlay.DHT) that AsDHT returns.
package chord

import (
	"sync"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// RPC request and response payloads. Handlers read or mutate only the
// destination node's state and hold no lock across a call. Two
// requests are served with calls of their own: only a served walk's
// steps (overlay.WalkReq) may leave the process, and a served route
// (routeReq, route.go) calls only nodes its process hosts.

// nextHopReq asks a node for the next step in resolving Key.
type nextHopReq struct {
	Key ring.Point
}

// maxCandidates bounds the routing candidates one next-hop reply
// carries: the closest preceding finger plus fallbacks.
const maxCandidates = 4

// nextHopResp either resolves the lookup (Done, with Succ holding the
// node responsible for Key) or offers routing candidates, best first,
// in the fixed-size Cands array (the old slice field cost one
// allocation per routing hop). Responses travel as *nextHopResp and are
// pooled: the lookup loop is the only consumer and returns each reply
// to the pool once it has picked the next hop, so steady-state routing
// allocates no envelopes at all.
type nextHopResp struct {
	Done bool
	Succ ring.Point
	// N is the number of valid entries in Cands.
	N     int
	Cands [maxCandidates]ring.Point
}

var nextHopRespPool = sync.Pool{New: func() any { return new(nextHopResp) }}

// newNextHopResp returns a zeroed reply from the pool.
func newNextHopResp() *nextHopResp {
	r := nextHopRespPool.Get().(*nextHopResp)
	*r = nextHopResp{}
	return r
}

// putNextHopResp recycles a reply the consumer is done with.
func putNextHopResp(r *nextHopResp) { nextHopRespPool.Put(r) }

// add appends p as a routing candidate if it advances toward key (lies
// strictly between self and key) and is not already present, and
// reports whether the candidate list is now full. The linear dedup over
// at most maxCandidates entries replaces the per-call map the handler
// used to allocate.
func (r *nextHopResp) add(self, key, p ring.Point) bool {
	if r.N >= maxCandidates {
		return true
	}
	if p == self || !ring.BetweenExcl(self, key, p) {
		return false
	}
	for i := 0; i < r.N; i++ {
		if r.Cands[i] == p {
			return false
		}
	}
	r.Cands[r.N] = p
	r.N++
	return r.N == maxCandidates
}

// succListReq asks a node for its successor list.
type succListReq struct{}

// succListResp carries a copy of the node's successor list.
type succListResp struct {
	List []ring.Point
}

// notifyReq tells a node that Candidate might be its predecessor; the
// node answers overlay.Ack. The ring-pointer requests and ping are the
// shared ones in internal/overlay.
type notifyReq struct {
	Candidate ring.Point
}
