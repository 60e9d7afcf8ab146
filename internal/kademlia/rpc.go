// Package kademlia is a Kademlia-style DHT (Maymounkov & Mazières,
// IPTPS 2002) over the simulated network in internal/simnet: 64-bit
// identifiers under the XOR metric, k-buckets with least-recently-seen
// eviction and replacement caches, and iterative FIND_NODE lookups with
// configurable parallelism (alpha) and closeness (k).
//
// It is the second real routing geometry of the repo (after
// internal/chord) and exists to prove King & Saia's substrate-
// independence claim: the paper's sampler needs only h (a routed
// lookup) and next (one successor chase), so it must run unmodified
// over a prefix-routing overlay whose metric is not the clockwise
// circle. The shared dht.DHT adapter (overlay.DHT, from AsDHT) resolves
// h by combining an iterative XOR lookup with each node's maintained
// ring pointers — see ResolveOwner for the owner-resolution argument —
// and serves next from the successor pointer in one RPC, with all costs
// charged on the transport meter.
package kademlia

import (
	"math/bits"
	"sync"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// idBits is the identifier width; XOR distances span [0, 2^64).
const idBits = 64

// xorDist returns the XOR distance between two identifiers. It is the
// Kademlia metric: symmetric, and unidirectional (for any target and
// distance there is exactly one identifier at that distance).
func xorDist(a, b ring.Point) uint64 {
	return uint64(a) ^ uint64(b)
}

// bucketIndex returns the k-bucket an identifier at XOR distance d
// belongs to: bucket i covers distances [2^i, 2^(i+1)). Distance zero
// (the node itself) has no bucket; callers must not pass it.
func bucketIndex(d uint64) int {
	return bits.Len64(d) - 1
}

// RPC request and response payloads. Kademlia's handlers read or
// mutate only the destination node's state and make no calls; the one
// request served with calls of its own is a delegated walk
// (overlay.WalkReq), whose steps may leave the process. Liveness probes
// and bucket refreshes happen in the maintenance path, never in
// handlers.
// The ring metric (ring.Distance) decides key ownership — h(x) is the
// clockwise-closest peer — while the XOR metric only routes.

// findNodeReq asks a node for the K contacts it knows closest (by XOR)
// to Target.
type findNodeReq struct {
	Target ring.Point
	K      int
}

// findNodeResp carries the responder's closest known contacts, best
// (XOR-closest) first, including the responder itself. Replies travel
// as pooled pointers whose Closest buffer is reused across RPCs: a
// FIND_NODE reply is issued per queried contact per lookup round, so
// boxing a fresh value plus a fresh k-slice each time was the
// subsystem's densest allocation site. The lookup loop drains each
// reply and recycles it with putFindNodeResp.
type findNodeResp struct {
	Closest []ring.Point
}

var findNodeRespPool = sync.Pool{New: func() any { return new(findNodeResp) }}

// newFindNodeResp returns a reply from the pool with an empty (but
// possibly pre-grown) Closest buffer.
func newFindNodeResp() *findNodeResp {
	r := findNodeRespPool.Get().(*findNodeResp)
	r.Closest = r.Closest[:0]
	return r
}

// putFindNodeResp recycles a reply, keeping its buffer.
func putFindNodeResp(r *findNodeResp) { findNodeRespPool.Put(r) }

// spliceReq rewires a node's ring pointers during a join: the receiver
// adopts Succ and/or Pred when the corresponding Has flag is set and
// answers overlay.Ack. The ring-pointer requests and ping are the
// shared ones in internal/overlay.
type spliceReq struct {
	Succ    ring.Point
	HasSucc bool
	Pred    ring.Point
	HasPred bool
}
