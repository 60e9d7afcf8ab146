package kademlia

import (
	"fmt"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Node is one Kademlia peer's public handle: a (network, slot) pair
// into the network's flat slot arena (see internal/overlay), built on
// demand and passed by value. All
// exported accessors and the RPC handlers are safe for concurrent use;
// no lock is ever held across an RPC.
type Node struct {
	net  *Network
	slot uint32
}

// ID returns the node's identifier.
func (nd Node) ID() ring.Point { return nd.net.IDOf(nd.slot) }

// Successor returns the node's ring successor pointer.
func (nd Node) Successor() ring.Point { return nd.net.succOf(nd.slot) }

// Predecessor returns the node's ring predecessor pointer.
func (nd Node) Predecessor() ring.Point { return nd.net.predOf(nd.slot) }

// Contacts returns every routing-table entry (all buckets), the edges
// a random-walk sampler would traverse.
func (nd Node) Contacts() []ring.Point { return nd.net.Neighbors(nd.slot) }

// BucketEntries returns a copy of bucket i's entries (LRU first).
func (nd Node) BucketEntries(i int) []ring.Point { return nd.net.entriesOfSlot(nd.slot, i) }

// setRing installs the node's ring pointers.
func (nd Node) setRing(succ, pred ring.Point) { nd.net.setRing(nd.slot, succ, pred) }

// succOf returns slot s's ring successor identifier.
func (n *Network) succOf(s uint32) ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	succ := n.ID(a.succs[s])
	st.RUnlock()
	return succ
}

// pointers implements the overlay.Hooks accessor VerifyRing reads.
func (n *Network) pointers(s uint32) (ring.Point, ring.Point, bool) {
	return n.succOf(s), n.predOf(s), true
}

// predOf returns slot s's ring predecessor identifier.
func (n *Network) predOf(s uint32) ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	pred := n.ID(a.preds[s])
	st.RUnlock()
	return pred
}

// setRing installs slot s's ring pointers. The targets are interned
// outside the stripe (lock order: core mutex before stripe).
func (n *Network) setRing(s uint32, succ, pred ring.Point) {
	ss := n.Intern(succ)
	ps := n.Intern(pred)
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	a.succs[s] = ss
	a.preds[s] = ps
	st.Unlock()
}

// setSucc installs slot s's ring successor pointer.
func (n *Network) setSucc(s uint32, succ ring.Point) {
	ss := n.Intern(succ) // before the stripe: Intern takes the core mutex
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	a.succs[s] = ss
	st.Unlock()
}

// handleRPC dispatches one RPC addressed to the node in slot s. Every
// inbound message is evidence the sender is alive, so the sender is
// recorded in the routing table first (Kademlia's passive table
// maintenance). A FIND_NODE, the hot request, does the touch and its
// selection under one hold of the slot's stripe (answerFindNode).
func (n *Network) handleRPC(s uint32, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	if m, ok := msg.(findNodeReq); ok {
		resp := newFindNodeResp()
		resp.Closest = n.answerFindNode(s, ring.Point(from), resp.Closest, m.Target, m.K)
		return resp, nil
	}
	if p := ring.Point(from); p != n.IDOf(s) {
		n.touchContact(s, p)
	}
	switch m := msg.(type) {
	case overlay.SuccessorReq:
		return overlay.NewPointResp(n.succOf(s), true), nil
	case overlay.PredecessorReq:
		return overlay.NewPointResp(n.predOf(s), true), nil
	case spliceReq:
		// Intern both targets before taking the stripe (lock order:
		// core mutex before stripe).
		var ss, ps uint32
		if m.HasSucc {
			ss = n.Intern(m.Succ)
		}
		if m.HasPred {
			ps = n.Intern(m.Pred)
		}
		a := &n.st
		st := n.Stripe(s)
		st.Lock()
		if m.HasSucc {
			a.succs[s] = ss
		}
		if m.HasPred {
			a.preds[s] = ps
		}
		st.Unlock()
		return overlay.Ack{}, nil
	case overlay.PingReq:
		return overlay.Ack{}, nil
	default:
		return nil, fmt.Errorf("kademlia: node %v: unknown message %T from %d", n.IDOf(s), msg, from)
	}
}
