package kademlia

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// DHT adapts a Kademlia network, viewed from one caller node, to the
// paper's abstract DHT model: H is an iterative XOR lookup plus an O(1)
// expected ring-pointer verification (see ResolveOwner), Next is one
// get-successor RPC, and every RPC is charged on the transport meter.
type DHT struct {
	net    *Network
	caller ring.Point

	mu sync.RWMutex
	// sorted is the membership snapshot owner indices are derived from:
	// a peer's owner index is its rank here (binary search), so the
	// adapter carries no per-peer map — at 10^7 peers the old
	// map[Point]int cost more memory than the overlay itself.
	sorted []ring.Point

	lookups   atomic.Int64
	rounds    atomic.Int64
	chaseRPCs atomic.Int64
}

var _ dht.DHT = (*DHT)(nil)

// AsDHT returns the network viewed from the given caller node. The
// owner index of each peer is its rank in the current sorted
// membership; call RefreshOwners after churn to re-derive it.
func (n *Network) AsDHT(caller ring.Point) (*DHT, error) {
	if _, err := n.Node(caller); err != nil {
		return nil, err
	}
	d := &DHT{net: n, caller: caller}
	d.RefreshOwners()
	return d, nil
}

// RefreshOwners re-snapshots the membership the owner indices are
// ranked against (global knowledge used only for experiment tallying,
// never by the protocol or the samplers). The snapshot is the
// network's immutable copy-on-write membership slice, so this is a
// pointer fetch, not a rebuild.
func (d *DHT) RefreshOwners() {
	members := d.net.Members()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sorted = members
}

// Self returns the caller as a peer.
func (d *DHT) Self() dht.Peer { return d.peerOf(d.caller) }

// H implements dht.DHT via an iterative Kademlia lookup followed by
// the clockwise-owner resolution.
func (d *DHT) H(x ring.Point) (dht.Peer, error) {
	owner, stats, err := d.net.ResolveOwner(d.caller, x)
	if err != nil {
		return dht.Peer{}, fmt.Errorf("kademlia dht: h(%v): %w", x, err)
	}
	d.lookups.Add(1)
	d.rounds.Add(int64(stats.Rounds))
	d.chaseRPCs.Add(int64(stats.ChaseRPCs))
	return d.peerOf(owner), nil
}

// Next implements dht.DHT via one get-successor RPC to p.
func (d *DHT) Next(p dht.Peer) (dht.Peer, error) {
	succ, err := d.net.Successor(d.caller, p.Point)
	if err != nil {
		if errors.Is(err, simnet.ErrUnknownNode) {
			return dht.Peer{}, fmt.Errorf("%w: no peer at %v", dht.ErrUnknownPeer, p.Point)
		}
		return dht.Peer{}, fmt.Errorf("kademlia dht: next(%v): %w", p.Point, err)
	}
	return d.peerOf(succ), nil
}

// Size implements dht.DHT.
func (d *DHT) Size() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sorted)
}

// Owners implements dht.DHT. Kademlia has one point per peer.
func (d *DHT) Owners() int { return d.Size() }

// Meter implements dht.DHT.
func (d *DHT) Meter() *simnet.Meter { return d.net.Meter() }

// Network exposes the underlying Kademlia network.
func (d *DHT) Network() *Network { return d.net }

// LookupStats reports the adapter's cumulative H-cost split: total H
// calls, sequential lookup rounds (the t_h latency model: alpha
// FIND_NODEs travel per round), and ring-pointer chase RPCs spent on
// clockwise-owner resolution.
type LookupStats struct {
	Lookups   int64
	Rounds    int64
	ChaseRPCs int64
}

// Stats returns the cumulative H-cost counters.
func (d *DHT) Stats() LookupStats {
	return LookupStats{
		Lookups:   d.lookups.Load(),
		Rounds:    d.rounds.Load(),
		ChaseRPCs: d.chaseRPCs.Load(),
	}
}

func (d *DHT) peerOf(id ring.Point) dht.Peer {
	d.mu.RLock()
	sorted := d.sorted
	d.mu.RUnlock()
	owner := -1
	if rank, ok := ring.Rank(sorted, id); ok {
		owner = rank
	}
	return dht.Peer{Point: id, Owner: owner}
}

// NeighborsOf returns the overlay neighbors (all routing-table
// contacts) of the node at p, as peers. Random-walk samplers traverse
// these edges; the per-step RPC cost is charged by the walker.
func (d *DHT) NeighborsOf(p dht.Peer) ([]dht.Peer, error) {
	nd, err := d.net.Node(p.Point)
	if err != nil {
		return nil, fmt.Errorf("kademlia dht: neighbors of %v: %w", p.Point, err)
	}
	points := nd.Contacts()
	out := make([]dht.Peer, len(points))
	for i, pt := range points {
		out[i] = d.peerOf(pt)
	}
	return out, nil
}
