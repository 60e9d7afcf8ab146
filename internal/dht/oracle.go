package dht

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Oracle is an idealized DHT backend: it resolves h with the ring's
// bucket-directory search (ring.Successor) and charges the standard
// synthetic costs (t_h = m_h/2 = ceil(log2 n) sequential RPCs for a
// lookup, one RPC for a successor chase). It models a perfectly stabilized Chord ring and
// scales to millions of peers, which the experiment sweeps rely on.
type Oracle struct {
	ring   *ring.Ring
	owners []int // owner of point i; nil means owner == index
	nOwner int
	hops   int64 // ceil(log2 n), the synthetic per-lookup cost
	meter  simnet.Meter

	// Virtual-time simulation (nil/zero when disabled): each synthetic
	// hop draws one latency from model and advances clock, mirroring
	// what the real overlays pay on a sim.Transport.
	clock  *sim.Clock
	model  sim.Model
	stream *sim.Stream
}

var (
	_ DHT   = (*Oracle)(nil)
	_ Laner = (*Oracle)(nil)
)

// NewOracle builds an oracle DHT over the given ring; peer i owns point i.
func NewOracle(r *ring.Ring) *Oracle {
	return &Oracle{ring: r, nOwner: r.Len(), hops: lookupHops(r.Len())}
}

// GenerateOracle places n peers uniformly at random (the paper's
// random-oracle placement) and returns the resulting DHT.
func GenerateOracle(rng *rand.Rand, n int) (*Oracle, error) {
	r, err := ring.Generate(rng, n)
	if err != nil {
		return nil, fmt.Errorf("dht: generating oracle ring: %w", err)
	}
	return NewOracle(r), nil
}

// NewVirtualOracle builds an oracle DHT in which each of nOwners peers
// owns pointsPerOwner points placed uniformly at random — the classic
// virtual-nodes load-balancing extension discussed in the paper's related
// work. h resolves to a point; Owner identifies the real peer.
func NewVirtualOracle(rng *rand.Rand, nOwners, pointsPerOwner int) (*Oracle, error) {
	if nOwners <= 0 || pointsPerOwner <= 0 {
		return nil, fmt.Errorf("dht: need positive owners (%d) and points per owner (%d)", nOwners, pointsPerOwner)
	}
	total := nOwners * pointsPerOwner
	r, err := ring.Generate(rng, total)
	if err != nil {
		return nil, fmt.Errorf("dht: generating virtual ring: %w", err)
	}
	// Points were generated in one batch and sorted; assign owners by
	// dealing points round-robin through a shuffled order so ownership is
	// independent of position, as if each owner hashed its own points.
	perm := rng.Perm(total)
	owners := make([]int, total)
	for j, idx := range perm {
		owners[idx] = j % nOwners
	}
	return &Oracle{ring: r, owners: owners, nOwner: nOwners, hops: lookupHops(r.Len())}, nil
}

// Ring exposes the underlying ring for analyzers and experiments.
func (o *Oracle) Ring() *ring.Ring { return o.ring }

// SimulateLatency attaches a virtual clock and per-hop latency model:
// from then on every synthetic RPC the oracle charges also draws one
// round-trip latency, advances clk and records the duration in the
// meter's histogram — the same accounting the real overlays get from a
// sim.Transport, so E25-style latency sweeps compare all backends on
// one scale. Oracle hops are anonymous (the model sees node ids 0, 0),
// so per-node models like Straggler degenerate to their base behaviour
// here.
func (o *Oracle) SimulateLatency(clk *sim.Clock, model sim.Model, seed uint64) {
	o.clock = clk
	o.model = model
	o.stream = sim.NewStream(seed)
}

// chargeLatency spends and records the virtual time of "hops"
// sequential synthetic RPCs.
func (o *Oracle) chargeLatency(hops int64) {
	if o.model == nil {
		return
	}
	for j := int64(0); j < hops; j++ {
		d := o.model.Latency(0, 0, o.stream.U01())
		o.clock.Advance(d)
		o.meter.RecordLatency(d)
	}
}

// H implements DHT. It charges ceil(log2 n) sequential RPCs (2 messages
// each), the textbook Chord lookup cost.
func (o *Oracle) H(x ring.Point) (Peer, error) {
	o.meter.Charge(o.hops, 2*o.hops)
	o.chargeLatency(o.hops)
	return o.lookup(x), nil
}

// Next implements DHT. It charges one RPC (2 messages).
func (o *Oracle) Next(p Peer) (Peer, error) {
	q, err := o.successor(p)
	if err != nil {
		return Peer{}, err
	}
	o.meter.Charge(1, 2)
	o.chargeLatency(1)
	return q, nil
}

// lookup resolves h(x) and charges nothing; H and a lane's H both
// answer with it.
func (o *Oracle) lookup(x ring.Point) Peer {
	return o.peerAt(o.ring.Successor(x))
}

// successor resolves next(p) and charges nothing; Next and a lane's Next
// both answer with it.
//
// Index recovers p's index without a search whenever possible: with
// one point per owner (the common case) a peer's Owner IS its ring
// index, verified with one array load, where a search would cost every
// step of a walk over Next.
func (o *Oracle) successor(p Peer) (Peer, error) {
	i, err := o.Index(p)
	if err != nil {
		return Peer{}, err
	}
	return o.peerAt(o.ring.NextIndex(i)), nil
}

// Index returns the ring index of p's point, or the ErrUnknownPeer
// error Next(p) returns when p is not a member.
func (o *Oracle) Index(p Peer) (int, error) {
	if o.owners == nil && p.Owner >= 0 && p.Owner < o.ring.Len() && o.ring.At(p.Owner) == p.Point {
		return p.Owner, nil
	}
	if i := o.ring.IndexOf(p.Point); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("%w: no peer at %v", ErrUnknownPeer, p.Point)
}

// Lane implements Laner. An oracle with SimulateLatency armed offers
// none: every synthetic hop there advances the one clock and draws from
// the one latency stream, in call order, and a private counter would
// only move the cheap half of that shared state.
func (o *Oracle) Lane() (Lane, bool) {
	if o.model != nil {
		return nil, false
	}
	return &oracleLane{Oracle: o}, true
}

// warmWindow is the most points one Warm resolves: core's exclusive
// fork hands over eight trial starts at a time.
const warmWindow = 8

// oracleLane is the oracle's Lane: the same ring and owners, the
// synthetic cost summed in a plain field until Flush. It is also a
// Warmer — warm[next:n] are the points of the last Warm not yet asked
// for, each with the rank of its successor — and a RingLane, whose
// Ring, Index and PeerByIndex are the oracle's own.
type oracleLane struct {
	*Oracle
	calls   int64 // unflushed RPC round trips, 2 messages each
	warm    [warmWindow]warmed
	next, n int
}

// warmed is one point of a Warm and the rank h answers it with.
type warmed struct {
	x    ring.Point
	rank int
}

var (
	_ Warmer   = (*oracleLane)(nil)
	_ RingLane = (*oracleLane)(nil)
)

// H answers from the warmed buffer when x is the next warmed point, and
// searches otherwise; either way it charges the same.
func (l *oracleLane) H(x ring.Point) (Peer, error) {
	l.calls += l.hops
	if l.next < l.n && l.warm[l.next].x == x {
		l.next++
		return l.peerAt(l.warm[l.next-1].rank), nil
	}
	return l.lookup(x), nil
}

// Warm resolves the first warmWindow points of xs in one loop of
// independent searches, replacing what an earlier Warm left unasked.
func (l *oracleLane) Warm(xs []ring.Point) {
	xs = xs[:min(len(xs), warmWindow)]
	for i, x := range xs {
		l.warm[i] = warmed{x, l.ring.Successor(x)}
	}
	l.next, l.n = 0, len(xs)
}

func (l *oracleLane) Next(p Peer) (Peer, error) {
	q, err := l.successor(p)
	if err != nil {
		return Peer{}, err
	}
	l.calls++
	return q, nil
}

// Walked charges steps next calls, one RPC each, as Next does.
func (l *oracleLane) Walked(steps int) { l.calls += int64(steps) }

func (l *oracleLane) Flush() {
	l.meter.Charge(l.calls, 2*l.calls)
	l.calls = 0
}

// Size implements DHT.
func (o *Oracle) Size() int { return o.ring.Len() }

// Owners implements DHT.
func (o *Oracle) Owners() int { return o.nOwner }

// Meter implements DHT.
func (o *Oracle) Meter() *simnet.Meter { return &o.meter }

// PeerByIndex returns the peer owning point index i, for experiment
// drivers that iterate over all peers.
func (o *Oracle) PeerByIndex(i int) Peer { return o.peerAt(i) }

func (o *Oracle) peerAt(i int) Peer {
	owner := i
	if o.owners != nil {
		owner = o.owners[i]
	}
	return Peer{Point: o.ring.At(i), Owner: owner}
}

// lookupHops is the synthetic lookup cost ceil(log2 n), computed once
// at construction (math.Log2 per H call showed up in profiles).
func lookupHops(n int) int64 {
	if n <= 1 {
		return 1
	}
	return int64(math.Ceil(math.Log2(float64(n))))
}
