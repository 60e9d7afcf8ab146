// Package baseline implements the sampling strategies King & Saia's
// algorithm is evaluated against:
//
//   - Naive: return h(x) for a uniformly random point x. The paper's
//     Section 1 shows its bias is Theta(n log n) between the most and
//     least likely peers.
//   - Walk: a fixed-length random walk on the DHT overlay graph
//     (Gkantsidis, Mihail, Saberi — INFOCOM 2004), the only prior work
//     the paper cites for peer sampling. It approximates uniformity but
//     its stationary distribution is proportional to node degree.
//   - Naive over a virtual-nodes DHT (built with dht.NewVirtualOracle):
//     the classic load-balancing extension discussed in the paper's
//     related work; it reduces but does not remove the bias.
package baseline

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Naive samples h(x) at a uniformly random x: one lookup per sample.
//
// Concurrency contract: safe for unsynchronized concurrent use; the
// mutex guards only the RNG draw and is never held across the lookup.
// For reproducible parallel batches give each goroutine its own Fork.
type Naive struct {
	d    dht.DHT
	name string

	mu  sync.Mutex
	rng *rand.Rand
}

var _ dht.Sampler = (*Naive)(nil)

// NewNaive builds the naive sampler over any DHT backend.
func NewNaive(d dht.DHT, rng *rand.Rand) *Naive {
	return &Naive{d: d, rng: rng, name: "naive"}
}

// NewVirtualNaive builds the naive sampler labelled as the virtual-node
// baseline; pass a DHT with multiple points per owner (for example
// dht.NewVirtualOracle).
func NewVirtualNaive(d dht.DHT, rng *rand.Rand) *Naive {
	return &Naive{d: d, rng: rng, name: "virtual-naive"}
}

// Sample implements dht.Sampler.
func (s *Naive) Sample() (dht.Peer, error) {
	s.mu.Lock()
	x := ring.Point(s.rng.Uint64())
	s.mu.Unlock()
	p, err := s.d.H(x)
	if err != nil {
		return dht.Peer{}, fmt.Errorf("baseline: naive h(%v): %w", x, err)
	}
	return p, nil
}

// Name implements dht.Sampler.
func (s *Naive) Name() string { return s.name }

// Fork returns an independent naive sampler over the same DHT with its
// own PCG stream seeded from seed. It makes no DHT calls.
func (s *Naive) Fork(seed uint64) (dht.Sampler, error) {
	return &Naive{d: s.d, name: s.name, rng: rand.New(rand.NewPCG(seed, seed^0xbb67ae8584caa73b))}, nil
}

// Graph exposes a DHT overlay's edges for random walks. The Chord
// adapter's underlying network satisfies it via NeighborsOf; the oracle
// satisfies it via OracleGraph.
type Graph interface {
	// Neighbors returns the distinct overlay neighbors of p.
	Neighbors(p dht.Peer) ([]dht.Peer, error)
}

// Walk samples by running a fixed-length random walk on the overlay
// graph from a fixed start peer and returning the endpoint. Each step
// costs one RPC (charged to the DHT's meter).
//
// Concurrency contract: safe for unsynchronized concurrent use, but a
// shared Walk serializes whole walks under its mutex (each step's RNG
// draw depends on the neighbor list just fetched, so the lock must span
// the walk). Concurrent throughput comes from Fork: per-goroutine
// clones walk in parallel with no shared state.
type Walk struct {
	g     Graph
	d     dht.DHT
	start dht.Peer
	steps int

	mu  sync.Mutex
	rng *rand.Rand
}

var _ dht.Sampler = (*Walk)(nil)

// NewWalk builds a random-walk sampler taking the given number of steps
// per sample.
func NewWalk(d dht.DHT, g Graph, start dht.Peer, steps int, rng *rand.Rand) (*Walk, error) {
	if steps < 1 {
		return nil, fmt.Errorf("baseline: walk length must be >= 1, got %d", steps)
	}
	return &Walk{g: g, d: d, start: start, steps: steps, rng: rng}, nil
}

// Sample implements dht.Sampler.
func (s *Walk) Sample() (dht.Peer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.start
	for i := 0; i < s.steps; i++ {
		nbrs, err := s.g.Neighbors(cur)
		if err != nil {
			return dht.Peer{}, fmt.Errorf("baseline: walk step %d at %v: %w", i, cur.Point, err)
		}
		if len(nbrs) == 0 {
			return dht.Peer{}, fmt.Errorf("baseline: walk stranded at %v with no neighbors", cur.Point)
		}
		cur = nbrs[s.rng.IntN(len(nbrs))]
		// One message to fetch the neighbor's identity, one to move on.
		s.d.Meter().Charge(1, 2)
	}
	return cur, nil
}

// Name implements dht.Sampler.
func (s *Walk) Name() string { return fmt.Sprintf("walk-%d", s.steps) }

// Fork returns an independent walk sampler with the same graph, start
// peer and walk length but its own PCG stream seeded from seed. It
// makes no DHT calls.
func (s *Walk) Fork(seed uint64) (dht.Sampler, error) {
	return &Walk{
		g: s.g, d: s.d, start: s.start, steps: s.steps,
		rng: rand.New(rand.NewPCG(seed, seed^0x3c6ef372fe94f82b)),
	}, nil
}
