package chord

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Config parameterizes a Chord network.
type Config struct {
	// SuccListLen is the successor-list length r; Chord remains connected
	// w.h.p. while fewer than r consecutive successors fail between
	// stabilization rounds. Default 8.
	SuccListLen int
	// MaxLookupHops aborts lookups that fail to converge (possible only
	// while the ring is badly damaged). Default 256.
	MaxLookupHops int
	// DisableFingers turns off finger tables: routing falls back to
	// successor lists, making lookups Theta(n/SuccListLen) hops. This
	// models a minimal ring-only DHT and demonstrates Theorem 7's t_h
	// dependence — the sampler inherits whatever lookup cost the DHT
	// has. Set MaxLookupHops accordingly. Finger-disabled networks also
	// skip the finger arrays entirely, cutting the per-node footprint
	// by idBits slot references.
	DisableFingers bool
}

func (c Config) withDefaults() Config {
	if c.SuccListLen <= 0 {
		c.SuccListLen = 8
	}
	if c.MaxLookupHops <= 0 {
		c.MaxLookupHops = 256
	}
	return c
}

// Network is a collection of Chord nodes sharing one simulated
// transport. Membership, slot allocation and the transport binding are
// the embedded overlay.Core; the routing state lives in flat per-slot
// arrays (arena.go). Nodes are addressed internally by dense uint32
// slot and externally by ring.Point identifier.
type Network struct {
	overlay.Core
	cfg Config
	// succStride is the row width of the packed successor-list array
	// (cfg.SuccListLen after defaulting).
	succStride int
	st         arena

	// stores holds per-slot key/value items (primaries + replicas),
	// keyed by slot. Most nodes store nothing, so a side map beats a
	// per-slot field. Guarded by storeMu, which nests inside any other
	// lock (it is taken last and held across no calls).
	storeMu sync.RWMutex
	stores  map[uint32]map[ring.Point][]byte
}

var _ overlay.Network = (*Network)(nil)

// Chord error conditions.
var (
	ErrNodeExists    = overlay.ErrNodeExists
	ErrNodeNotFound  = overlay.ErrNodeNotFound
	ErrLookupAborted = errors.New("chord: lookup aborted")
	ErrEmptyNetwork  = overlay.ErrEmptyNetwork
)

// NewNetwork creates an empty Chord network over the given transport.
func NewNetwork(cfg Config, tr simnet.Transport) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:        cfg,
		succStride: cfg.SuccListLen,
		stores:     make(map[uint32]map[ring.Point][]byte),
	}
	n.Init(tr, overlay.Hooks{Grow: n.grow, Reset: n.resetSlot, Mark: n.markSlot, Drop: n.dropStore, Handle: n.handleRPC, Pointers: n.pointers})
	return n
}

// Node returns the handle of the live node with the given id.
func (n *Network) Node(id ring.Point) (Node, error) {
	s, ok := n.LiveSlot(id)
	if !ok {
		return Node{}, fmt.Errorf("%w: %v", ErrNodeNotFound, id)
	}
	return Node{n, s}, nil
}

// Create starts the first node of a fresh ring.
func (n *Network) Create(id ring.Point) (Node, error) {
	s, err := n.AddNode(id)
	if err != nil {
		return Node{}, err
	}
	return Node{n, s}, nil
}

// Join adds a node to the ring through the existing node via, per the
// Chord join protocol: resolve the new node's successor with a lookup,
// adopt its successor list, and let stabilization integrate the rest.
func (n *Network) Join(id, via ring.Point) error {
	if _, ok := n.LiveSlot(id); ok {
		return fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	succ, err := n.Lookup(via, id)
	if err != nil {
		return fmt.Errorf("chord: join of %v via %v: %w", id, via, err)
	}
	return n.finishJoin(id, succ)
}

// JoinVia adds a locally hosted node to a ring whose bootstrap contact
// may live on another process: the successor is resolved by routing
// through bootstrap over the transport (LookupVia) instead of
// initiating at a local node. It is the join path wire-transport
// daemons use.
func (n *Network) JoinVia(id, bootstrap ring.Point) error {
	if _, ok := n.LiveSlot(id); ok {
		return fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	succ, err := n.LookupVia(id, bootstrap, id)
	if err != nil {
		return fmt.Errorf("chord: join of %v via remote %v: %w", id, bootstrap, err)
	}
	return n.finishJoin(id, succ)
}

// finishJoin integrates a freshly resolved joiner below its successor:
// register the node, adopt the successor's list, and announce.
func (n *Network) finishJoin(id, succ ring.Point) error {
	nd, err := n.Create(id)
	if err != nil {
		return err
	}
	var tail []ring.Point
	if resp, err := n.Call(id, succ, succListReq{}); err == nil {
		tail = resp.(succListResp).List
	}
	nd.setSuccessors(succ, tail)
	// Announce ourselves; the successor adopts us as predecessor if we
	// are closer than its current one.
	if _, err := n.Call(id, succ, notifyReq{Candidate: id}); err != nil {
		// The successor crashed between lookup and notify; stabilization
		// will repair via the successor list.
		nd.advanceSuccessor(succ)
	}
	return nil
}

// Lookup resolves the successor of key, initiated at node from, using
// iterative finger-table routing. The first routing step executes
// locally at the initiator (no RPC), subsequent steps cost one RPC each;
// with correct fingers the total is O(log n) RPCs.
//
// The request envelope is boxed once for the whole lookup (the key
// never changes hop to hop), every reply is drained into locals and
// recycled before the next RPC, and the backup-candidate scratch is a
// fixed-size array — the routing loop allocates nothing per hop.
func (n *Network) Lookup(from, key ring.Point) (ring.Point, error) {
	l := n.newLookup(noSlot, from, key)
	return n.lookupFrom(&l)
}

// AsDHT returns the network viewed from the given caller node as the
// paper's abstract DHT: H is a routed Chord lookup (O(log n) RPCs
// counted on the transport meter) and Next is one get-successor RPC.
func (n *Network) AsDHT(caller ring.Point) (*overlay.DHT, error) {
	return overlay.NewDHT(&n.Core, n, caller)
}

// Owner implements overlay.Router via Lookup.
func (n *Network) Owner(from, x ring.Point) (ring.Point, error) { return n.Lookup(from, x) }

// LookupVia resolves the successor of key by routing through start,
// which may be hosted on another process: the first routing step is an
// RPC to start instead of a local table read, so no local node is
// required. from identifies the caller on the transport; it need not
// be registered anywhere (a joiner uses its own id).
func (n *Network) LookupVia(from, start, key ring.Point) (ring.Point, error) {
	l := n.newLookup(noSlot, from, key)
	resp, err := n.call(&l, start)
	if err != nil {
		return 0, fmt.Errorf("%w: bootstrap %v unreachable: %v", ErrLookupAborted, start, err)
	}
	return n.resolve(&l, resp)
}

// StabilizeNode runs one stabilize + notify round for node id, repairing
// its successor pointer and refreshing its successor list.
func (n *Network) StabilizeNode(id ring.Point) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	succ := nd.Successor()
	if succ == id {
		// Lost all successors: try to rejoin through any other live node.
		if other, ok := n.anyOtherNode(id); ok {
			if target, err := n.Lookup(other, id); err == nil && target != id {
				nd.setSuccessors(target, nil)
				succ = target
			}
		}
	}
	p, has, err := n.Predecessor(id, succ)
	if err != nil {
		nd.advanceSuccessor(succ)
		nd.invalidateFingersTo(succ)
		return nil // repaired; next round continues
	}
	if has && ring.BetweenExcl(id, succ, p) {
		// The successor knows a node between us: adopt it if reachable.
		if n.Ping(id, p) == nil {
			succ = p
		}
	}
	var tail []ring.Point
	if raw, err := n.Call(id, succ, succListReq{}); err == nil {
		tail = raw.(succListResp).List
	} else {
		nd.advanceSuccessor(succ)
		return nil
	}
	nd.setSuccessors(succ, tail)
	if _, err := n.Call(id, succ, notifyReq{Candidate: id}); err != nil {
		nd.advanceSuccessor(succ)
	}
	return nil
}

// FixFinger refreshes one finger of node id (cycling through indices).
// It is a no-op on finger-disabled networks.
func (n *Network) FixFinger(id ring.Point) error {
	if n.cfg.DisableFingers {
		return nil
	}
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	a := &n.st
	st := n.Stripe(nd.slot)
	st.Lock()
	k := int(a.nextFix[nd.slot])
	a.nextFix[nd.slot] = uint8((k + 1) % idBits)
	st.Unlock()
	target, err := n.Lookup(id, nd.fingerStart(k))
	if err != nil {
		return nil // ring damaged; retry on a later round
	}
	nd.setFinger(k, target)
	return nil
}

// CheckPredecessor probes node id's predecessor and clears it if dead.
func (n *Network) CheckPredecessor(id ring.Point) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	pred, has := nd.Predecessor()
	if !has {
		return nil
	}
	if n.Ping(id, pred) != nil {
		nd.clearPredecessor()
	}
	return nil
}

// MaintainNode runs one maintenance round for node id: stabilize, check
// the predecessor, fix fingersPerRound fingers. Per-node errors are
// ignored: the node may crash mid-round; the surviving nodes keep
// repairing.
func (n *Network) MaintainNode(id ring.Point, _, fingersPerRound int) {
	_ = n.StabilizeNode(id)
	_ = n.CheckPredecessor(id)
	for f := 0; f < fingersPerRound; f++ {
		_ = n.FixFinger(id)
	}
}

// Maintain executes the given number of synchronous maintenance rounds
// (overlay.Maintain over MaintainNode). Enough rounds after churn
// restore a perfect ring; tests assert this invariant via VerifyRing.
func (n *Network) Maintain(rounds, fingersPerRound int) {
	overlay.Maintain(n, rounds, fingersPerRound)
}

// anyOtherNode returns a live node other than id, if one exists. It
// picks the smallest id rather than an arbitrary choice so that repair
// behaviour — and therefore whole simulations — is a deterministic
// function of network state; with the sorted snapshot that is the first
// entry not equal to id, an O(1) read.
func (n *Network) anyOtherNode(id ring.Point) (ring.Point, bool) {
	members := n.Members()
	if len(members) > 0 && members[0] != id {
		return members[0], true
	}
	if len(members) > 1 {
		return members[1], true
	}
	return 0, false
}

// BuildStatic constructs a fully stabilized ring over the given points in
// one step: successors, predecessors, successor lists and all fingers are
// computed directly (overlay.Core.BuildStatic). It is the starting state
// for experiments that study the sampler rather than ring convergence; a
// 10^7-peer ring constructs in well under a minute on one core and
// occupies a few GB.
func BuildStatic(cfg Config, tr simnet.Transport, points []ring.Point) (*Network, error) {
	return BuildStaticPartition(cfg, tr, points, nil)
}

// BuildStaticPartition constructs the local shard of a stabilized ring
// that spans multiple processes: the full membership defines every
// node's routing state, but only the nodes selected by owned are hosted
// on this process. A nil owned predicate owns everything, which is
// exactly BuildStatic.
func BuildStaticPartition(cfg Config, tr simnet.Transport, points []ring.Point, owned func(ring.Point) bool) (*Network, error) {
	n := NewNetwork(cfg, tr)
	err := n.BuildStatic(points, owned, func(r *ring.Ring, idx []int) {
		for _, i := range idx {
			n.fillStaticSlot(r, i)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("chord: %w", err)
	}
	return n, nil
}

// fillStaticSlot computes the stabilized routing state of the node at
// ring index i (slot i, by construction): every successor, predecessor
// and finger reference is plain index arithmetic with no ID translation.
func (n *Network) fillStaticSlot(r *ring.Ring, i int) {
	a := &n.st
	s := uint32(i)
	size := r.Len()
	base := i * n.succStride
	a.succs[base] = uint32(r.NextIndex(i))
	cnt := 1
	for k := 2; k <= n.cfg.SuccListLen && k < size; k++ {
		a.succs[base+cnt] = uint32((i + k) % size)
		cnt++
	}
	a.succLen[s] = uint16(cnt)
	if size > 1 {
		a.preds[s] = uint32(r.PrevIndex(i))
	}
	if n.cfg.DisableFingers {
		return
	}
	// Finger k points at the successor of id + 2^k. The targets'
	// clockwise distances are strictly increasing, so their owners
	// advance monotonically around the ring: gallop from the previous
	// finger's offset instead of paying a full binary search per finger.
	// Offset 0 means the successor wrapped all the way back to the node
	// itself (no peer at clockwise distance >= 2^k) — once that happens
	// it holds for every larger k.
	off := 1
	fb := i * idBits
	for k := 0; k < idBits; k++ {
		if off != 0 {
			off = succOffset(r, i, uint64(1)<<uint(k), off)
		}
		if off == 0 {
			a.fingers[fb+k] = s
		} else {
			a.fingers[fb+k] = uint32((i + off) % size)
		}
	}
	a.fingOK[s] = ^uint64(0)
}

// succOffset returns the clockwise offset from node i of the successor
// of r.At(i) + d, galloping right from prev (the previous finger's
// offset, ≥ 1). Offset 0 reports that no peer lies at clockwise
// distance >= d, in which case the successor is node i itself.
func succOffset(r *ring.Ring, i int, d uint64, prev int) int {
	size := r.Len()
	if size == 1 {
		return 0
	}
	id := r.At(i)
	dist := func(off int) uint64 { return ring.Distance(id, r.At((i+off)%size)) }
	if dist(prev) >= d {
		return prev
	}
	// Exponential bracket: dist(lo) < d <= dist(right).
	lo, step := prev, 1
	right := lo + 1
	for right <= size-1 && dist(right) < d {
		lo = right
		right += step
		step <<= 1
	}
	if right > size-1 {
		right = size - 1
		if dist(right) < d {
			return 0
		}
	}
	for right-lo > 1 {
		mid := int(uint(lo+right) >> 1)
		if dist(mid) >= d {
			right = mid
		} else {
			lo = mid
		}
	}
	return right
}

// VerifyFingers checks every live node's set fingers against the
// current membership: finger k must point at the live successor of
// id + 2^k. Unset fingers are ignored (they only cost lookup hops, not
// correctness). It returns nil when every set finger is correct, which
// is the state Maintain converges to once every node has cycled
// through all 64 fingers.
func (n *Network) VerifyFingers() error {
	r := n.Ring()
	if r.Len() == 0 {
		return ErrEmptyNetwork
	}
	for _, id := range r.Sorted() {
		nd, err := n.Node(id)
		if err != nil {
			return err
		}
		for k := 0; k < idBits; k++ {
			finger, ok := nd.Finger(k)
			if !ok {
				continue
			}
			want := r.At(r.Successor(nd.fingerStart(k)))
			if finger != want {
				return fmt.Errorf("chord: node %v finger %d = %v, want %v", id, k, finger, want)
			}
		}
	}
	return nil
}
