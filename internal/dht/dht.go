// Package dht defines the abstract DHT model of King & Saia's paper and
// an oracle implementation of it.
//
// The paper assumes only two primitives of the underlying DHT:
//
//   - h(x): the peer whose peer point is closest in clockwise distance to
//     the point x (a routed lookup; cost t_h latency and m_h messages,
//     both O(log n) in a standard DHT such as Chord), and
//   - next(p): the peer whose point is closest clockwise to peer p's
//     point (one pointer chase; O(1) latency and messages).
//
// Samplers are written against this interface and therefore run
// unmodified over the real Chord implementation (internal/chord) and the
// Oracle backend in this package, which resolves lookups with the ring's
// bucket-directory search while charging the standard synthetic costs,
// enabling million-peer experiments.
package dht

import (
	"errors"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Peer identifies a peer occupying a point on the unit circle.
//
// Owner is the stable identity of the owning peer, used for tallying
// selection frequencies. In a standard DHT every peer owns exactly one
// point and Owner enumerates peers; with virtual nodes several points
// share one Owner. Owner is -1 when the backend cannot resolve it.
type Peer struct {
	Point ring.Point
	Owner int
}

// DHT is the paper's abstract DHT model.
type DHT interface {
	// H returns h(x): the peer managing point x.
	H(x ring.Point) (Peer, error)
	// Next returns next(p): p's immediate clockwise successor peer.
	Next(p Peer) (Peer, error)
	// Size returns the number of peer points on the circle. It exists for
	// verification and experiment bookkeeping; samplers must not use it.
	Size() int
	// Owners returns the number of distinct owning peers (equal to Size
	// except with virtual nodes).
	Owners() int
	// Meter exposes the cost counters charged by H and Next.
	Meter() *simnet.Meter
}

// Lane is a single-goroutine view of a DHT: H and Next answer exactly as
// the DHT's own do, but their cost accumulates in the lane, off the
// shared Meter, until Flush charges it there in one piece. The holder
// must call Flush before anyone reads the Meter for the work done so
// far; core's exclusive fork does so on every exit of Sample, so the
// Meter is exact whenever no Sample is in flight. Sharing a lane
// between goroutines is a data race.
type Lane interface {
	DHT
	// Flush charges the cost accumulated since the last Flush to the
	// DHT's Meter.
	Flush()
}

// Laner is the optional capability of a DHT that can account H and Next
// privately per caller. The shared Meter's counters are contended cache
// lines once several goroutines charge them (see simnet.Meter), and a
// sample charges about a hundred times, so a sampler confined to one
// goroutine takes a lane when its DHT offers one.
type Laner interface {
	// Lane returns a fresh lane, or false when this DHT cannot offer one
	// in its current configuration.
	Lane() (Lane, bool)
}

// Warmer is the optional capability of a Lane that can resolve lookups
// ahead of need. Its holder passes the points it will hand H next, in
// order, and the lane may resolve them at once: independent searches
// whose cache misses overlap, where one H at a time waits for each
// miss in turn. Warm is a hint. It charges nothing and changes no
// answer: H charges what it always does and returns the same peer for
// any point, warmed or not, in any order.
type Warmer interface {
	Warm(xs []ring.Point)
}

// RingLane is the optional capability of a Lane whose peers are the
// points of one ring held in this process, in ring order. A walk from
// peer to successor can then read the points in place, by index, where
// Next answers one peer a call, and charge the lane what those Next
// calls cost. Only the oracle's lane offers it. It answers nothing Next
// would not: Index fails on a peer that is not a member with Next's
// error, and PeerByIndex(i+1) is what Next answers for the peer at i
// (wrapping at the end). The walk rule itself is core's.
type RingLane interface {
	// Ring returns the ring of the lane's peer points. It does not
	// change over the lane's life.
	Ring() *ring.Ring
	// Index returns the index of p's point in Ring, or the
	// ErrUnknownPeer error Next(p) returns when p is not a member.
	Index(p Peer) (int, error)
	// PeerByIndex returns the peer at index i of Ring, owner and all.
	PeerByIndex(i int) Peer
	// Walked charges steps next calls to the lane, as that many Next
	// calls would, and answers nothing.
	Walked(steps int)
}

// ErrUnknownPeer is returned by Next when the given peer is not a member
// of the DHT.
var ErrUnknownPeer = errors.New("dht: unknown peer")

// Sampler chooses peers from a DHT. Implementations include the paper's
// uniform sampler (internal/core) and the baselines it is evaluated
// against (internal/baseline).
type Sampler interface {
	// Sample chooses one peer.
	Sample() (Peer, error)
	// Name identifies the sampler in experiment output.
	Name() string
}

// Effort is the cumulative work of a rejection sampler, in the units of
// the paper's cost model: one sample = trials x (one h lookup + a next
// walk). Effort is counted on every exit of Sample — a call that ends
// in an error still spent its trials and steps — while Samples counts
// successes only.
type Effort struct {
	// Samples is the number of successful Sample calls.
	Samples int64
	// Trials is the total number of rejection-loop iterations (each
	// costing one h lookup).
	Trials int64
	// Steps is the total number of next-walk steps taken.
	Steps int64
	// Pruned is the total number of failed trials abandoned at the
	// distance horizon, short of the full walk bound.
	Pruned int64
}

// Plus returns the field-wise sum e + f.
func (e Effort) Plus(f Effort) Effort {
	return Effort{
		Samples: e.Samples + f.Samples,
		Trials:  e.Trials + f.Trials,
		Steps:   e.Steps + f.Steps,
		Pruned:  e.Pruned + f.Pruned,
	}
}

// EffortReporter is the optional capability of a Sampler that counts
// its effort; the batch engine totals it over the forks of a run.
type EffortReporter interface {
	Stats() Effort
}
