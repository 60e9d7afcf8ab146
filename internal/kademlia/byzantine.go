package kademlia

import (
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Byzantine reply forging. Like chord's equivalent, this file exports
// the minimal surface the adversary package needs over the unexported
// (pooled) RPC payloads: recognize the lookup RPC (overlay.IsPointerRPC
// recognizes the shared pointer queries) and rewrite the subvertible
// replies toward attacker-chosen peers. Policy (who lies, to whom)
// stays in internal/adversary; this file owns how each kademlia RPC is
// best subverted, because that takes the overlay's own metrics:
//
//   - FIND_NODE replies carry the coalition members XOR-closest to the
//     requested target. Anything else loses the race inside the
//     querier's k-closest frontier — a random colluder is almost never
//     closer than the honest candidates already known, so the lie gets
//     ignored; the XOR-closest colluders displace honest candidates
//     and (during maintenance refreshes) land in exactly the bucket
//     being refreshed.
//   - Ring-pointer replies use widest-interval lies. The owner
//     verification accepts a successor reply s from node m when the
//     key x lies in (m, s], so the most credible lie is the coalition
//     member the farthest clockwise from the asked node — the interval
//     it claims covers almost the whole circle and passes the check
//     for almost every key. Predecessor lies mirror this
//     counterclockwise.
//
// Every forged value is a pure function of (lying node, request,
// coalition), keeping simulations bit-identical at any GOMAXPROCS.

// IsLookupRPC reports whether msg is an iterative-lookup step (a
// FIND_NODE request).
func IsLookupRPC(msg simnet.Message) bool {
	_, ok := msg.(findNodeReq)
	return ok
}

// ByzantineReply forges the reply lying node self substitutes for the
// genuine handler outcome (resp, err) it produced for req. coalition
// is the full colluding set in ascending point order; the forged
// values steer toward its members as described in the file comment.
// The third return is false when req is not a subvertible kademlia
// RPC (or no usable lie exists). Forged replies reuse the handler's
// pooled reply value when one exists.
func ByzantineReply(self ring.Point, req, resp simnet.Message, err error, coalition []ring.Point) (simnet.Message, error, bool) {
	if len(coalition) == 0 {
		return nil, nil, false
	}
	switch m := req.(type) {
	case findNodeReq:
		r, ok := resp.(*findNodeResp)
		if !ok || err != nil {
			r = newFindNodeResp()
		}
		k := m.K
		if k <= 0 {
			k = 1
		}
		// The coalition is sorted, so its k XOR-closest members come
		// from the static build's trie descent.
		r.Closest = r.Closest[:0]
		for _, i := range collectXorClosest(nil, coalition, 0, len(coalition), 0, idBits, uint64(m.Target), k) {
			r.Closest = append(r.Closest, coalition[i])
		}
		orderByXor(r.Closest, m.Target)
		// Also inject the colluders ring-sandwiching the target: every
		// reply contact enters the querier's seen set, and the owner
		// verification scans that set by clockwise distance — so the
		// coalition members tightest below and above the target are the
		// ones that can win the predecessor/owner slots.
		below := nearest(coalition, func(c ring.Point) uint64 { return ring.Distance(c, m.Target) })
		above := nearest(coalition, func(c ring.Point) uint64 { return ring.Distance(m.Target, c) })
		r.Closest = appendUnique(r.Closest, below)
		r.Closest = appendUnique(r.Closest, above)
		return r, nil, true
	case overlay.SuccessorReq, overlay.PredecessorReq:
		// Widest interval: the colluder the farthest clockwise from self
		// for a successor, counterclockwise for a predecessor (skipping
		// self, who may itself collude).
		dist := func(c ring.Point) uint64 { return ring.Distance(self, c) }
		if _, pred := m.(overlay.PredecessorReq); pred {
			dist = func(c ring.Point) uint64 { return ring.Distance(c, self) }
		}
		lie, ok := farthest(self, coalition, dist)
		if !ok {
			return nil, nil, false
		}
		r, isPool := resp.(*overlay.PointResp)
		if !isPool || err != nil {
			r = overlay.NewPointResp(lie, true)
		}
		r.P, r.Has = lie, true
		return r, nil, true
	}
	return nil, nil, false
}

// nearest returns the coalition member minimizing dist. The caller
// guarantees a non-empty coalition.
func nearest(coalition []ring.Point, dist func(ring.Point) uint64) ring.Point {
	best := coalition[0]
	bestD := dist(best)
	for _, c := range coalition[1:] {
		if d := dist(c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// appendUnique appends p unless already present (forged contact lists
// are short, so the linear scan is fine).
func appendUnique(list []ring.Point, p ring.Point) []ring.Point {
	for _, e := range list {
		if e == p {
			return list
		}
	}
	return append(list, p)
}

// farthest returns the coalition member other than self maximizing
// dist, and false when the coalition holds nobody else.
func farthest(self ring.Point, coalition []ring.Point, dist func(ring.Point) uint64) (ring.Point, bool) {
	var best ring.Point
	var bestD uint64
	found := false
	for _, c := range coalition {
		if c == self {
			continue
		}
		if d := dist(c); !found || d > bestD {
			best, bestD, found = c, d, true
		}
	}
	return best, found
}
