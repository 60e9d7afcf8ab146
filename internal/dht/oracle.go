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
	_ DHT    = (*Oracle)(nil)
	_ Trials = (*Oracle)(nil)
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
	return o.peerAt(o.ring.Successor(x)), nil
}

// Next implements DHT. It charges one RPC (2 messages).
//
// It recovers p's index without a search whenever possible: with one
// point per owner (the common case) a peer's Owner IS its ring index,
// verified with one array load, where a search would cost every step
// of a walk over Next.
func (o *Oracle) Next(p Peer) (Peer, error) {
	i := p.Owner
	if o.owners != nil || i < 0 || i >= o.ring.Len() || o.ring.At(i) != p.Point {
		if i = o.ring.IndexOf(p.Point); i < 0 {
			return Peer{}, fmt.Errorf("%w: no peer at %v", ErrUnknownPeer, p.Point)
		}
	}
	o.meter.Charge(1, 2)
	o.chargeLatency(1)
	return o.peerAt(o.ring.NextIndex(i)), nil
}

// Trials implements Trials. An exclusive sampler's trials run in an
// oracleTrials. A shareable sampler's run as NewRunner runs them, and
// so does every sampler's while SimulateLatency is armed: every
// synthetic hop there advances the one clock and draws from the one
// latency stream, in call order, and a private counter would only move
// the cheap half of that shared state.
func (o *Oracle) Trials(w Walk, draw func() ring.Point, exclusive bool) Runner {
	if !exclusive || o.model != nil {
		return NewRunner(o, w, draw)
	}
	return &oracleTrials{Oracle: o, w: w, draw: draw, next: window}
}

// window is how many trial starts an oracleTrials draws and resolves at
// once. Windows of 16 and 32 sampled as fast, 4 a few percent slower.
const window = 8

// oracleTrials runs one exclusive sampler's trials. It draws the starts
// of window trials at once and resolves their lookups in one loop of
// independent searches, whose cache misses overlap where one lookup at
// a time waits for each miss in turn. It walks each trial in the ring
// by index (Walk.overRing), where Next answers one peer a call. And it
// sums the synthetic cost in a plain field until Flush: the shared
// Meter's counters are contended cache lines once several goroutines
// charge them (see simnet.Meter), and a sample would charge about a
// hundred times. ahead[next:] are the starts drawn and not yet run,
// each with the rank of its successor; they wait for the sampler's next
// Sample call and die with the runner.
type oracleTrials struct {
	*Oracle
	w     Walk
	draw  func() ring.Point
	calls int64 // unflushed RPC round trips, 2 messages each
	ahead [window]struct {
		x    ring.Point
		rank int
	}
	next int
}

func (r *oracleTrials) Trial() Trial {
	if r.next == window {
		for i := range r.ahead {
			r.ahead[i].x = r.draw()
		}
		for i := range r.ahead {
			r.ahead[i].rank = r.ring.Successor(r.ahead[i].x)
		}
		r.next = 0
	}
	a := r.ahead[r.next]
	r.next++
	r.calls += r.hops
	t := Trial{H: r.peerAt(a.rank)}
	d0 := ring.Distance(a.x, t.H.Point)
	if d0 < r.w.Lambda {
		t.Peer, t.Accepted = t.H, true
		return t
	}
	if i := r.w.overRing(r.ring.Sorted(), a.rank, d0, &t); i >= 0 {
		t.Peer, t.Accepted = r.peerAt(i), true
	}
	r.calls += int64(t.Steps)
	return t
}

func (r *oracleTrials) Flush() {
	r.meter.Charge(r.calls, 2*r.calls)
	r.calls = 0
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
