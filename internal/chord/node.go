package chord

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// idBits is the identifier width; the ring has 2^64 positions.
const idBits = 64

// Node is one Chord peer's public handle: a (network, slot) pair into
// the network's flat slot arena (see internal/overlay), built on demand
// and passed by value. All exported accessors and the RPC handlers are
// safe for concurrent use; no lock is ever held across an RPC.
type Node struct {
	net  *Network
	slot uint32
}

// ID returns the node's identifier (its peer point).
func (nd Node) ID() ring.Point { return nd.net.IDOf(nd.slot) }

// Successor returns the node's immediate successor.
func (nd Node) Successor() ring.Point { return nd.net.succOf(nd.slot) }

// Predecessor returns the node's predecessor, if known.
func (nd Node) Predecessor() (ring.Point, bool) { return nd.net.predOf(nd.slot) }

// SuccessorList returns a copy of the node's successor list.
func (nd Node) SuccessorList() []ring.Point { return nd.net.succListOf(nd.slot) }

// Finger returns finger k (the node believed to succeed id + 2^k), if set.
func (nd Node) Finger(k int) (ring.Point, bool) {
	n := nd.net
	if k < 0 || k >= idBits || n.cfg.DisableFingers {
		return 0, false
	}
	a := &n.st
	st := n.Stripe(nd.slot)
	st.RLock()
	defer st.RUnlock()
	if a.fingOK[nd.slot]>>uint(k)&1 == 0 {
		return 0, false
	}
	return n.ID(a.fingers[int(nd.slot)*idBits+k]), true
}

// Neighbors returns the node's distinct outgoing overlay edges: its
// successor list and set fingers. This is the graph random-walk samplers
// traverse.
func (nd Node) Neighbors() []ring.Point { return nd.net.Neighbors(nd.slot) }

// Neighbors implements overlay.Router for the node in slot s. Both
// sources are small and bounded (SuccListLen + idBits entries), so
// duplicates are weeded by scanning the result instead of allocating a
// set per call.
func (n *Network) Neighbors(s uint32) []ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	self := n.ID(s)
	base := int(s) * n.succStride
	ln := int(a.succLen[s])
	out := make([]ring.Point, 0, ln+idBits)
	for i := 0; i < ln; i++ {
		if p := n.ID(a.succs[base+i]); p != self && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	if !n.cfg.DisableFingers {
		fb := int(s) * idBits
		for w := a.fingOK[s]; w != 0; w &= w - 1 {
			p := n.ID(a.fingers[fb+bits.TrailingZeros64(w)])
			if p != self && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// fingerStart returns id + 2^k, the start of finger k's interval.
func (nd Node) fingerStart(k int) ring.Point {
	return ring.Add(nd.ID(), uint64(1)<<uint(k))
}

// setSuccessors installs succ as the immediate successor followed by the
// tail list (typically the successor's own list), truncated to the
// configured length and cleaned of self-references beyond the head.
func (nd Node) setSuccessors(succ ring.Point, tail []ring.Point) {
	nd.net.setSuccessors(nd.slot, succ, tail)
}

// advanceSuccessor drops a failed immediate successor, falling back to
// the next entry of the successor list, or to self if none remain (the
// node then rebuilds via notify when others find it).
func (nd Node) advanceSuccessor(failed ring.Point) {
	nd.net.advanceSuccessor(nd.slot, failed)
}

// clearPredecessor forgets a failed predecessor.
func (nd Node) clearPredecessor() { nd.net.clearPredecessor(nd.slot) }

// setFinger installs finger k.
func (nd Node) setFinger(k int, p ring.Point) { nd.net.setFinger(nd.slot, k, p) }

// invalidateFingersTo drops all fingers pointing at a failed node.
func (nd Node) invalidateFingersTo(failed ring.Point) {
	nd.net.invalidateFingersTo(nd.slot, failed)
}

// succOf returns slot s's immediate successor identifier.
func (n *Network) succOf(s uint32) ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	succ := n.ID(a.succs[int(s)*n.succStride])
	st.RUnlock()
	return succ
}

// pointers implements the overlay.Hooks accessor VerifyRing reads.
func (n *Network) pointers(s uint32) (ring.Point, ring.Point, bool) {
	pred, has := n.predOf(s)
	return n.succOf(s), pred, has
}

// predOf returns slot s's predecessor identifier, if known.
func (n *Network) predOf(s uint32) (ring.Point, bool) {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	p := a.preds[s]
	if p == noSlot {
		return 0, false
	}
	return n.ID(p), true
}

// succListOf returns a copy of slot s's successor list as identifiers.
func (n *Network) succListOf(s uint32) []ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	base := int(s) * n.succStride
	out := make([]ring.Point, a.succLen[s])
	for i := range out {
		out[i] = n.ID(a.succs[base+i])
	}
	return out
}

// handleRPC dispatches one RPC addressed to the node in slot s.
func (n *Network) handleRPC(s uint32, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	switch m := msg.(type) {
	case nextHopReq:
		return n.nextHop(s, m), nil
	case routeReq:
		return n.serveRoute(s, from, m)
	case overlay.SuccessorReq:
		return overlay.NewPointResp(n.succOf(s), true), nil
	case overlay.PredecessorReq:
		p, has := n.predOf(s)
		return overlay.NewPointResp(p, has), nil
	case succListReq:
		return succListResp{List: n.succListOf(s)}, nil
	case notifyReq:
		n.notify(s, m.Candidate)
		return overlay.Ack{}, nil
	case overlay.PingReq:
		return overlay.Ack{}, nil
	default:
		if resp, ok := n.handleStorage(s, msg); ok {
			return resp, nil
		}
		return nil, fmt.Errorf("chord: node %v: unknown message %T from %d", n.IDOf(s), msg, from)
	}
}

// nextHop implements one routing step: either Key belongs to this
// node's successor, or the reply carries the closest preceding fingers
// as candidates (best first) with the successor as the final fallback,
// which guarantees progress whenever the ring pointers are correct.
// The reply comes from the response pool; the lookup loop recycles it.
// Everything runs under one stripe read-lock with no allocation: slot
// references translate to identifiers via atomic loads.
func (n *Network) nextHop(s uint32, m nextHopReq) *nextHopResp {
	resp := newNextHopResp()
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	self := n.ID(s)
	base := int(s) * n.succStride
	succ := n.ID(a.succs[base])
	if ring.BetweenIncl(self, succ, m.Key) {
		resp.Done = true
		resp.Succ = succ
		return resp
	}
	if !n.cfg.DisableFingers {
		fb := int(s) * idBits
		for w := a.fingOK[s]; w != 0; {
			k := idBits - 1 - bits.LeadingZeros64(w)
			if resp.add(self, m.Key, n.ID(a.fingers[fb+k])) {
				break
			}
			w &^= 1 << uint(k)
		}
	}
	// Successor-list entries are reliable short-range routes and the
	// fallback that guarantees progress. Offer the farthest preceding
	// entry first: greedy routing then advances up to SuccListLen peers
	// per hop even with no usable fingers.
	for i := int(a.succLen[s]) - 1; i >= 0 && resp.N < maxCandidates; i-- {
		resp.add(self, m.Key, n.ID(a.succs[base+i]))
	}
	if resp.N == 0 {
		resp.Cands[0] = succ
		resp.N = 1
	}
	return resp
}

// notify processes a predecessor candidate (Chord's notify) for slot s.
func (n *Network) notify(s uint32, candidate ring.Point) {
	cs := n.Intern(candidate) // before the stripe: Intern takes the core mutex
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	self := n.ID(s)
	if candidate == self {
		return
	}
	if p := a.preds[s]; p == noSlot || ring.BetweenExcl(n.ID(p), self, candidate) {
		a.preds[s] = cs
	}
}

// setSuccessors installs the successor list for slot s; see
// Node.setSuccessors. The id-level dedup runs first, then the survivors
// are interned outside the stripe (lock order: core mutex before
// stripe) and written as one packed row.
func (n *Network) setSuccessors(s uint32, succ ring.Point, tail []ring.Point) {
	self := n.IDOf(s)
	ids := make([]ring.Point, 0, n.cfg.SuccListLen)
	ids = append(ids, succ)
	for _, p := range tail {
		if len(ids) >= n.cfg.SuccListLen {
			break
		}
		if p == self || p == succ {
			continue
		}
		if !slices.Contains(ids, p) {
			ids = append(ids, p)
		}
	}
	slots := make([]uint32, len(ids))
	for i, p := range ids {
		slots[i] = n.Intern(p)
	}
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	copy(a.succs[int(s)*n.succStride:], slots)
	a.succLen[s] = uint16(len(slots))
	st.Unlock()
}

// advanceSuccessor drops slot s's failed immediate successor; see
// Node.advanceSuccessor.
func (n *Network) advanceSuccessor(s uint32, failed ring.Point) {
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	base := int(s) * n.succStride
	if n.ID(a.succs[base]) != failed {
		return // already repaired by a concurrent stabilize
	}
	if ln := int(a.succLen[s]); ln > 1 {
		copy(a.succs[base:base+ln-1], a.succs[base+1:base+ln])
		a.succLen[s] = uint16(ln - 1)
		return
	}
	a.succs[base] = s
	a.succLen[s] = 1
}

// clearPredecessor forgets slot s's predecessor.
func (n *Network) clearPredecessor(s uint32) {
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	a.preds[s] = noSlot
	st.Unlock()
}

// setFinger installs finger k of slot s.
func (n *Network) setFinger(s uint32, k int, p ring.Point) {
	if n.cfg.DisableFingers {
		return
	}
	ps := n.Intern(p) // before the stripe: Intern takes the core mutex
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	a.fingers[int(s)*idBits+k] = ps
	a.fingOK[s] |= 1 << uint(k)
	st.Unlock()
}

// invalidateFingersTo drops slot s's fingers pointing at a failed node.
func (n *Network) invalidateFingersTo(s uint32, failed ring.Point) {
	if n.cfg.DisableFingers {
		return
	}
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	fb := int(s) * idBits
	for w := a.fingOK[s]; w != 0; w &= w - 1 {
		k := bits.TrailingZeros64(w)
		if n.ID(a.fingers[fb+k]) == failed {
			a.fingOK[s] &^= 1 << uint(k)
		}
	}
}
