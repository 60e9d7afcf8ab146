package overlay

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Router is what an overlay's protocol adds to the core, as the paper's
// model sees it: its own lookup and its own edges. next(p) is the
// core's Successor, the same in every overlay.
type Router interface {
	// Owner resolves h(x) on behalf of node "from": the peer whose point
	// is clockwise-closest to x, by a routed lookup charged on the
	// transport meter.
	Owner(from, x ring.Point) (ring.Point, error)
	// Neighbors returns the outgoing overlay edges of the node in slot
	// s, the graph random-walk samplers traverse.
	Neighbors(s uint32) []ring.Point
}

// TailRouter is the optional Router capability of an overlay whose
// lookups can hand their hops to the processes hosting them.
// OwnerTails resolves h(x) for from as Owner does — the same owner, the
// same calls between the same nodes — but each hop to a node another
// process hosts is one round trip in which that process also runs the
// hops after it to nodes it hosts. Those calls are charged to that
// process's meter. When the last such round trip ends at the process
// hosting the owner, that process also runs the trial's walk with p
// (core.RemoteLookup) as ServeWalk runs it, and walked is true; the
// walk's peer comes back as a point (owner index -1), and err is then
// the walk's failure. Chord implements it.
type TailRouter interface {
	OwnerTails(from, x ring.Point, p core.Params) (owner ring.Point, w core.WalkResult, walked bool, err error)
}

// DHT adapts an overlay network, viewed from one caller node, to the
// paper's abstract DHT model: H is the router's lookup and Next the
// core's one get-successor RPC.
type DHT struct {
	core   *Core
	r      Router
	caller ring.Point

	// owners is the membership owner indices are derived from: a peer's
	// owner index is its rank there, so the adapter carries no per-peer
	// map.
	owners atomic.Pointer[ring.Ring]
}

var _ dht.DHT = (*DHT)(nil)

// NewDHT returns the network of c and r viewed from caller, a live
// local node. The owner index of each peer is its rank in the current
// sorted membership; call RefreshOwners after churn to re-derive it.
func NewDHT(c *Core, r Router, caller ring.Point) (*DHT, error) {
	if _, ok := c.LiveSlot(caller); !ok {
		return nil, fmt.Errorf("%w: %v", ErrNodeNotFound, caller)
	}
	d := &DHT{core: c, r: r, caller: caller}
	d.RefreshOwners()
	return d, nil
}

// RefreshOwners re-snapshots the membership the owner indices are
// ranked against (global knowledge used only for experiment tallying,
// never by the protocol or the samplers). The snapshot is the core's
// immutable per-epoch ring, so this is a pointer swap, not a rebuild.
func (d *DHT) RefreshOwners() { d.owners.Store(d.core.Ring()) }

// Self returns the caller as a peer.
func (d *DHT) Self() dht.Peer { return d.peerOf(d.caller) }

// H implements dht.DHT via the overlay's routed lookup.
func (d *DHT) H(x ring.Point) (dht.Peer, error) {
	owner, err := d.r.Owner(d.caller, x)
	return d.ownerOf(x, owner, err)
}

// ownerOf turns a lookup of x's owner into H's answer.
func (d *DHT) ownerOf(x, owner ring.Point, err error) (dht.Peer, error) {
	if err != nil {
		return dht.Peer{}, fmt.Errorf("overlay dht: h(%v): %w", x, err)
	}
	return d.peerOf(owner), nil
}

// Next implements dht.DHT via one get-successor RPC to p.
func (d *DHT) Next(p dht.Peer) (dht.Peer, error) {
	succ, err := d.core.Successor(d.caller, p.Point)
	if err != nil {
		if errors.Is(err, simnet.ErrUnknownNode) {
			return dht.Peer{}, fmt.Errorf("%w: no peer at %v", dht.ErrUnknownPeer, p.Point)
		}
		return dht.Peer{}, fmt.Errorf("overlay dht: next(%v): %w", p.Point, err)
	}
	return d.peerOf(succ), nil
}

// Size implements dht.DHT.
func (d *DHT) Size() int { return d.owners.Load().Len() }

// Owners implements dht.DHT. Both overlays have one point per peer.
func (d *DHT) Owners() int { return d.Size() }

// Meter implements dht.DHT.
func (d *DHT) Meter() *simnet.Meter { return d.core.Meter() }

func (d *DHT) peerOf(id ring.Point) dht.Peer {
	owner := -1
	if rank, ok := d.owners.Load().Rank(id); ok {
		owner = rank
	}
	return dht.Peer{Point: id, Owner: owner}
}

// NeighborsOf returns the overlay neighbors of the node at p, as peers.
// Random-walk samplers traverse these edges; the per-step RPC cost is
// charged by the walker.
func (d *DHT) NeighborsOf(p dht.Peer) ([]dht.Peer, error) {
	s, ok := d.core.LiveSlot(p.Point)
	if !ok {
		return nil, fmt.Errorf("overlay dht: neighbors of %v: %w", p.Point, ErrNodeNotFound)
	}
	points := d.r.Neighbors(s)
	out := make([]dht.Peer, len(points))
	for i, pt := range points {
		out[i] = d.peerOf(pt)
	}
	return out, nil
}
