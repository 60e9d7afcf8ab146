package baseline

import (
	"fmt"
	"slices"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// OracleGraph presents the Chord overlay topology implied by an oracle
// DHT: each peer's neighbors are its successor and the successors of the
// finger targets point+2^k, deduplicated — exactly the edges a real
// Chord node holds, synthesized from global knowledge.
type OracleGraph struct {
	o *dht.Oracle
}

var _ Graph = (*OracleGraph)(nil)

// NewOracleGraph wraps an oracle DHT as a walkable overlay graph.
func NewOracleGraph(o *dht.Oracle) *OracleGraph {
	return &OracleGraph{o: o}
}

// Neighbors implements Graph.
func (g *OracleGraph) Neighbors(p dht.Peer) ([]dht.Peer, error) {
	r := g.o.Ring()
	self := r.IndexOf(p.Point)
	if self < 0 {
		return nil, fmt.Errorf("baseline: %w: no peer at %v", dht.ErrUnknownPeer, p.Point)
	}
	seen := make(map[int]struct{}, 65)
	out := make([]dht.Peer, 0, 65)
	add := func(idx int) {
		if idx == self {
			return
		}
		if _, dup := seen[idx]; dup {
			return
		}
		seen[idx] = struct{}{}
		out = append(out, g.o.PeerByIndex(idx))
	}
	add(r.NextIndex(self))
	for k := 0; k < 64; k++ {
		target := ring.Add(p.Point, uint64(1)<<uint(k))
		add(r.Successor(target))
	}
	return out, nil
}

// UndirectedOracleGraph is the symmetrized Chord overlay: u and v are
// neighbors when either holds the other in its successor or finger set.
// Metropolis-Hastings walks require this symmetry for detailed balance
// (the directed finger graph has no uniform stationary distribution);
// real deployments obtain it by having nodes track their in-links. The
// adjacency is precomputed once from global knowledge.
type UndirectedOracleGraph struct {
	o   *dht.Oracle
	adj [][]int
}

var _ Graph = (*UndirectedOracleGraph)(nil)

// NewUndirectedOracleGraph precomputes the symmetrized overlay
// adjacency for all peers of the oracle.
func NewUndirectedOracleGraph(o *dht.Oracle) *UndirectedOracleGraph {
	r := o.Ring()
	n := r.Len()
	g := &UndirectedOracleGraph{o: o, adj: make([][]int, n)}
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
	}
	for i := 0; i < n; i++ {
		addEdge(i, r.NextIndex(i))
		for k := 0; k < 64; k++ {
			target := ring.Add(r.At(i), uint64(1)<<uint(k))
			addEdge(i, r.Successor(target))
		}
	}
	// Sorted and deduplicated: neighbour order decides which way a
	// seeded walk steps, so it must not depend on map iteration.
	for i := range g.adj {
		slices.Sort(g.adj[i])
		g.adj[i] = slices.Compact(g.adj[i])
	}
	return g
}

// Neighbors implements Graph.
func (g *UndirectedOracleGraph) Neighbors(p dht.Peer) ([]dht.Peer, error) {
	idx := g.o.Ring().IndexOf(p.Point)
	if idx < 0 {
		return nil, fmt.Errorf("baseline: %w: no peer at %v", dht.ErrUnknownPeer, p.Point)
	}
	out := make([]dht.Peer, len(g.adj[idx]))
	for i, j := range g.adj[idx] {
		out[i] = g.o.PeerByIndex(j)
	}
	return out, nil
}

// NetworkGraph adapts any implementation with a NeighborsOf method (the
// Chord network adapter provides one) to the Graph interface.
type NetworkGraph struct {
	neighbors func(p dht.Peer) ([]dht.Peer, error)
}

var _ Graph = (*NetworkGraph)(nil)

// NewNetworkGraph wraps a neighbor-resolution function as a Graph.
func NewNetworkGraph(neighbors func(p dht.Peer) ([]dht.Peer, error)) *NetworkGraph {
	return &NetworkGraph{neighbors: neighbors}
}

// Neighbors implements Graph.
func (g *NetworkGraph) Neighbors(p dht.Peer) ([]dht.Peer, error) {
	return g.neighbors(p)
}
