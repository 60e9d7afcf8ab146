// Package overlay is the core both overlays (internal/chord,
// internal/kademlia) embed by value: one slot arena, one membership
// index, one scavenger, one transport registration, one dht.DHT
// adapter and the ring half of the protocol — the pointer RPCs behind
// next(p), their client calls and the ring check (pointers.go), and
// the walks it runs for samplers in other processes (walk.go). An
// overlay keeps only what differs — its routing arrays, its lookup and
// its repair policy — and hands the core six Hooks. Above the protocol
// both are one method set, Network (network.go).
//
// Flat index-based node storage. Every node a network knows about —
// live members, crashed members whose state in-flight RPCs may still
// read, and external contacts learned over the wire — occupies one
// dense uint32 slot. All routing state lives in the overlay's packed
// per-network slices indexed by slot (chord's successor rows, fingers
// and predecessors; kademlia's ring words and bucket-region refs): no
// per-node heap objects, no map[Point]*Node, no per-node []Point
// slices. A 10^7-node ring is a handful of large allocations instead of
// 10^7 small ones, which is what makes sub-minute builds and few-GB
// residency possible.
//
// The ID↔slot bridge is the membership: one immutable value per epoch
// holding the members as a ring.Ring (the sorted ids plus their bucket
// directory) and each member's slot aligned with its rank, so a
// member's slot is slots[Rank(id)] with no map and no binary search
// over the whole ring. The slot's top bit says whether this process
// hosts the member. Non-member slots — zombies (crashed nodes still
// visible to in-flight RPCs) and external contacts — resolve through a
// small overflow map that only ever holds the churn margin, never the
// ring.
//
// Locking. Per-slot routing state is guarded by a fixed pool of striped
// RWMutexes (slot & stripeMask picks the stripe). The core mutex
// guards slot allocation, the overflow map and every change of the
// membership: join, crash and the static build build the next epoch's
// value copy-on-write under it and publish it with one atomic store.
// Readers of the membership — LiveSlot, SlotOf for members, Members,
// Epoch, NumAlive, and so every RPC's destination lookup — take no lock
// at all: one atomic load hands them a consistent epoch. Lock order is
// mu before stripe. Slot identifiers (ids) are read and
// written atomically, so translating a slot reference found in another
// node's routing array back to its identifier needs no cross-stripe
// locking; growth swaps the backing slices (the core's and, through the
// Grow hook, the overlay's) under mu plus every stripe, so any reader
// holding either lock never observes a half-moved arena.
//
// Public node handles are (network, slot) pairs holding no state of
// their own: two-word values built on demand, with no allocation and no
// per-slot table.
//
// Slot reuse can alias: a handle or routing entry observed just before
// its slot was scavenged and recycled reads the new occupant's state.
// That is protocol-equivalent to the stale answers crashed nodes have
// always been allowed to give (routing verifies progress every hop),
// and the atomic ids keep it a stale read, never a data race.
package overlay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/parallel"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Membership error conditions, shared by every overlay.
var (
	ErrNodeExists   = errors.New("overlay: node already exists")
	ErrNodeNotFound = errors.New("overlay: node not found")
	ErrEmptyNetwork = errors.New("overlay: network has no live nodes")
)

const (
	numStripes = 256
	stripeMask = numStripes - 1
)

// Hooks is what an overlay supplies: the parts of slot management that
// touch its own routing arrays.
type Hooks struct {
	// Grow reallocates the overlay's per-slot arrays to the capacity
	// (GrowCopy). Called under mu plus every stripe.
	Grow func(capacity int)
	// Reset writes slot s's fresh-node baseline; ID(s) is already set
	// and the slot's side state already dropped. Called under mu plus
	// Stripe(s), or by the single-threaded static build.
	Reset func(s uint32)
	// Mark sets every slot live slot s's routing state references.
	// Called under mu plus every stripe.
	Mark func(s uint32, m Marks)
	// Drop releases the side state of dead slot s (chord's stored
	// items, kademlia's bucket regions). Called under mu plus at least
	// Stripe(s).
	Drop func(s uint32)
	// Handle serves one RPC addressed to the node in slot s.
	Handle func(s uint32, from simnet.NodeID, msg simnet.Message) (simnet.Message, error)
	// Pointers reads live slot s's ring pointers for VerifyRing; hasPred
	// is false when the node knows no predecessor.
	Pointers func(s uint32) (succ, pred ring.Point, hasPred bool)
}

// Marks is a bitset over slots.
type Marks []uint64

// Set marks slot s.
func (m Marks) Set(s uint32) { m[s/64] |= 1 << (s % 64) }

// Has reports whether slot s is marked.
func (m Marks) Has(s uint32) bool { return m[s/64]&(1<<(s%64)) != 0 }

// Core is the slot arena, membership index and transport binding of one
// overlay network. It must be initialised with Init and not copied
// afterwards.
type Core struct {
	tr    simnet.Transport
	hooks Hooks
	// regErr is set when the transport refused the network's one bulk
	// registration (a closed transport does); AddNode and BuildStatic
	// report it.
	regErr error

	mu      sync.RWMutex
	stripes [numStripes]sync.RWMutex

	// used is the number of allocated slots. ids and the overlay's
	// per-slot arrays have len == cap spanning the arena capacity, so
	// growth is the only operation that ever changes a slice header.
	used int
	ids  []uint64 // slot -> identifier; atomic access

	free     []uint32 // recycled slots ready for reuse (LIFO)
	freeBits Marks    // slots currently on free
	overflow map[ring.Point]uint32
	// reclaimable counts dead (zombie or external) slots not yet on
	// the free list; it triggers the mark-and-sweep scavenger.
	reclaimable int

	// members is the current epoch's membership, replaced (never
	// modified) under mu and read with no lock.
	members atomic.Pointer[membership]

	// The served counters (walk.go), read at scrape time: the walks
	// this network ran for callers, their steps and those a route tail
	// ran, and the route tails it ran and their hops after the first.
	servedWalks, servedSteps, servedTailWalks atomic.Int64
	servedRoutes, servedRouteHops             atomic.Int64
}

// membership is one epoch of the live membership. It is immutable
// once published, so Members hands out its sorted ids with no per-call
// copy and a holder keeps a consistent snapshot across later churn.
type membership struct {
	ring *ring.Ring
	// slots[i] is the slot of ring point i, or'ed with remote when
	// another process hosts that member (a partitioned build).
	slots []uint32
	epoch uint64
	// partitioned is set when some member is hosted by a peer process;
	// it is fixed by the static build, as only hosted members churn.
	partitioned bool
}

// remote marks a member slot hosted by a peer process. Slots stay
// below it: 2^31 slots would take hundreds of GB.
const remote = 1 << 31

// find returns member id's slot and whether this process hosts it; ok
// is false for non-members.
func (m *membership) find(id ring.Point) (s uint32, hosted, ok bool) {
	i, ok := m.ring.Rank(id)
	if !ok {
		return 0, false, false
	}
	return m.slots[i] &^ remote, m.slots[i]&remote == 0, true
}

// publishLocked installs the next epoch's membership. Caller holds mu.
func (c *Core) publishLocked(r *ring.Ring, slots []uint32, partitioned bool) {
	c.members.Store(&membership{ring: r, slots: slots, epoch: c.members.Load().epoch + 1, partitioned: partitioned})
}

// Init binds the core to its transport and overlay with one bulk
// registration: one handler serves every node this network hosts, so
// joins and crashes cost no transport bookkeeping.
func (c *Core) Init(tr simnet.Transport, h Hooks) {
	c.tr, c.hooks = tr, h
	c.overflow = make(map[ring.Point]uint32)
	c.members.Store(&membership{ring: new(ring.Ring)})
	if err := tr.RegisterMulti(c.ownsID, c.dispatchAny); err != nil {
		c.regErr = fmt.Errorf("overlay: registering on the transport: %w", err)
	}
}

// Stripe returns the lock guarding slot s's routing state.
func (c *Core) Stripe(s uint32) *sync.RWMutex { return &c.stripes[s&stripeMask] }

// ID returns slot s's identifier. Callers must hold a stripe or mu
// (either mode) to pin the backing array; the element itself is read
// atomically, so s may belong to any stripe.
func (c *Core) ID(s uint32) ring.Point {
	return ring.Point(atomic.LoadUint64(&c.ids[s]))
}

// IDOf returns slot s's identifier, taking the slot's stripe itself.
func (c *Core) IDOf(s uint32) ring.Point {
	st := c.Stripe(s)
	st.RLock()
	id := c.ID(s)
	st.RUnlock()
	return id
}

func (c *Core) lockAllStripes() {
	for i := range c.stripes {
		c.stripes[i].Lock()
	}
}

func (c *Core) unlockAllStripes() {
	for i := range c.stripes {
		c.stripes[i].Unlock()
	}
}

// growLocked reallocates every per-slot array to the new capacity,
// copying the used prefix, under every stripe. Caller holds mu (or is
// the single-threaded construction).
func (c *Core) growLocked(capacity int) {
	c.lockAllStripes()
	defer c.unlockAllStripes()
	c.ids = GrowCopy(c.ids, capacity)
	c.freeBits = GrowCopy(c.freeBits, (capacity+63)/64)
	c.hooks.Grow(capacity)
}

// GrowCopy returns a full-length slice of the new capacity holding a
// copy of src.
func GrowCopy[S ~[]T, T any](src S, capacity int) S {
	dst := make(S, capacity)
	copy(dst, src)
	return dst
}

// lookupLocked resolves an id to its slot: the membership first, then
// the overflow map. Caller holds mu (either mode), so the two agree.
func (c *Core) lookupLocked(id ring.Point) (uint32, bool) {
	if s, _, ok := c.members.Load().find(id); ok {
		return s, true
	}
	s, ok := c.overflow[id]
	return s, ok
}

// Intern resolves id to a slot, allocating an external slot when the
// id has never been seen. On the steady-state path (id is a member)
// this takes no lock and allocates nothing. Callers must not hold any
// stripe (lock order: mu before stripe).
func (c *Core) Intern(id ring.Point) uint32 {
	if s, ok := c.SlotOf(id); ok {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.lookupLocked(id); ok {
		return s
	}
	s := c.newSlotLocked(id)
	c.overflow[id] = s
	c.reclaimable++ // external slots are reclaimable once unreferenced
	return s
}

// SlotOf resolves an id without allocating; the second result is false
// for ids the network has never seen (or whose slot was scavenged).
// Only ids outside the membership take the lock.
func (c *Core) SlotOf(id ring.Point) (uint32, bool) {
	if s, _, ok := c.members.Load().find(id); ok {
		return s, true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lookupLocked(id)
}

// LiveSlot resolves an id to the slot of a live locally-hosted member.
func (c *Core) LiveSlot(id ring.Point) (uint32, bool) {
	s, hosted, _ := c.members.Load().find(id)
	return s, hosted
}

// newSlotLocked allocates a slot for id and resets it to the fresh-node
// baseline. Caller holds mu; the new slot is not yet live and not yet
// in any bridge structure.
func (c *Core) newSlotLocked(id ring.Point) uint32 {
	if len(c.free) == 0 && c.reclaimable >= scavengeThreshold(c.used) {
		c.scavengeLocked()
	}
	var s uint32
	if len(c.free) > 0 {
		s = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.freeBits[s/64] &^= 1 << (s % 64)
	} else {
		if c.used == cap(c.ids) {
			c.growLocked(max(c.used*2, 16))
		}
		s = uint32(c.used)
		c.used++
	}
	c.resetSlotLocked(s, id)
	return s
}

// resetSlotLocked rewrites slot s to the fresh-node baseline for id.
// Caller holds mu; the slot must not be referenced by any live node.
func (c *Core) resetSlotLocked(s uint32, id ring.Point) {
	st := c.Stripe(s)
	st.Lock()
	atomic.StoreUint64(&c.ids[s], uint64(id))
	c.hooks.Drop(s)
	c.hooks.Reset(s)
	st.Unlock()
}

// scavengeThreshold is the dead-slot count that triggers a sweep.
func scavengeThreshold(used int) int {
	if t := used / 8; t > 64 {
		return t
	}
	return 64
}

// scavengeLocked frees every dead slot no live member references: it
// marks the slots reachable from the membership bridge and every live
// node's routing state, then moves unmarked dead slots to the free list
// (LIFO, so reuse order is deterministic), drops their side state and
// their overflow entries. Caller holds mu.
func (c *Core) scavengeLocked() int {
	c.lockAllStripes()
	defer c.unlockAllStripes()
	marks := make(Marks, (c.used+63)/64)
	for _, s := range c.members.Load().slots {
		marks.Set(s &^ remote)
		if s&remote == 0 { // remote members of a partitioned build hold no local state
			c.hooks.Mark(s, marks)
		}
	}
	freed := 0
	for s := uint32(0); int(s) < c.used; s++ {
		if marks.Has(s) || c.freeBits.Has(s) {
			continue
		}
		c.free = append(c.free, s)
		c.freeBits.Set(s)
		c.hooks.Drop(s)
		freed++
	}
	if freed > 0 {
		for id, s := range c.overflow {
			if c.freeBits.Has(s) {
				delete(c.overflow, id)
			}
		}
	}
	c.reclaimable = max(c.reclaimable-freed, 0)
	return freed
}

// Scavenge forces one slot-recycling sweep and reports how many dead
// slots were freed for reuse. The core runs sweeps automatically once
// enough reclaimable slots accumulate; tests and operators use this to
// observe recycling deterministically.
func (c *Core) Scavenge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scavengeLocked()
}

// StorageStats reports the flat storage layout's occupancy.
type StorageStats struct {
	// Slots is the arena size: every node ever seen occupies one slot
	// until scavenged.
	Slots int
	// Live is the number of slots hosting live locally-hosted members.
	Live int
	// Free is the number of recycled slots awaiting reuse.
	Free int
	// Reclaimable is the number of dead slots not yet recycled (they
	// free once no live node's routing state references them).
	Reclaimable int
}

// StorageStats returns the current slot-arena occupancy.
func (c *Core) StorageStats() StorageStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	live := 0
	for _, s := range c.members.Load().slots {
		if s&remote == 0 {
			live++
		}
	}
	return StorageStats{Slots: c.used, Live: live, Free: len(c.free), Reclaimable: c.reclaimable}
}

// spliceIn returns a copy of s with v inserted at index i
// (copy-on-write, the aligned counterpart of ring.Insert).
func spliceIn(s []uint32, i int, v uint32) []uint32 {
	out := make([]uint32, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// spliceOut returns a copy of s with index i removed (copy-on-write).
func spliceOut(s []uint32, i int) []uint32 {
	out := make([]uint32, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// ownsID reports whether this network currently hosts a live node with
// the given transport id; the transport's bulk-registration path
// consults it in place of a per-node handler table.
func (c *Core) ownsID(id simnet.NodeID) bool {
	_, ok := c.LiveSlot(ring.Point(id))
	return ok
}

// dispatchAny routes a bulk-registered RPC to its destination slot.
// Crashed nodes remain resolvable through the overflow map until
// scavenged, so an in-flight RPC that won the transport's liveness
// check still reaches the node's frozen state, exactly as a registered
// handler keeps answering until deregistration takes effect.
func (c *Core) dispatchAny(to, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	s, ok := c.SlotOf(ring.Point(to))
	if !ok {
		return nil, fmt.Errorf("%w: %d", simnet.ErrUnknownNode, to)
	}
	if req, ok := msg.(WalkReq); ok {
		resp, err := c.ServeWalk(ring.Point(to), ring.Point(from), req)
		if err != nil {
			return nil, err
		}
		return resp, nil
	}
	return c.hooks.Handle(s, from, msg)
}

// Transport returns the underlying transport (for meters and faults).
func (c *Core) Transport() simnet.Transport { return c.tr }

// Meter returns the transport's cost meter.
func (c *Core) Meter() *simnet.Meter { return c.tr.Meter() }

// Call performs one RPC through the transport.
func (c *Core) Call(from, to ring.Point, msg simnet.Message) (simnet.Message, error) {
	return c.tr.Call(simnet.NodeID(from), simnet.NodeID(to), msg)
}

// Members returns the ids of all live nodes in sorted order. The
// returned slice is a shared immutable snapshot — callers must not
// modify it. Join/crash never re-sorts and never invalidates: each
// publishes a fresh spliced copy (copy-on-write), so a held snapshot
// stays internally consistent across later churn and a call here is
// one atomic load even at n = 10^6 under sustained churn.
func (c *Core) Members() []ring.Point { return c.Ring().Sorted() }

// Ring returns the live membership as an immutable ring: Members with
// its bucket directory, for lookups against the current epoch.
func (c *Core) Ring() *ring.Ring { return c.members.Load().ring }

// Epoch returns the membership epoch: it increments on every join and
// crash, so two equal readings around a Members call certify the
// snapshot is current (the epoch-snapshot pairing the race tests
// exercise).
func (c *Core) Epoch() uint64 { return c.members.Load().epoch }

// NumAlive returns the number of live nodes: the membership holds
// exactly the live nodes, so this is its length.
func (c *Core) NumAlive() int { return c.Ring().Len() }

// AddNode allocates (or recycles) a slot for id, splices it into the
// live membership — which is what makes the transport route to it —
// and returns the slot.
func (c *Core) AddNode(id ring.Point) (uint32, error) {
	if c.regErr != nil {
		return 0, c.regErr
	}
	c.mu.Lock()
	m := c.members.Load()
	r, rank, added := m.ring.Insert(id)
	if !added {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	s, ok := c.overflow[id]
	if ok {
		// The id had a zombie or external slot: reclaim it for the
		// rejoining node with fresh baseline state.
		delete(c.overflow, id)
		c.reclaimable = max(c.reclaimable-1, 0)
		c.resetSlotLocked(s, id)
	} else {
		s = c.newSlotLocked(id)
	}
	c.publishLocked(r, spliceIn(m.slots, rank, s), m.partitioned)
	c.mu.Unlock()
	return s, nil
}

// Crash removes a node abruptly: it leaves the live membership and
// every new RPC to it fails until the overlay's maintenance routes
// around it. Its slot parks in the overflow map (state frozen, still
// answering RPCs already in flight) until the scavenger recycles it.
func (c *Core) Crash(id ring.Point) error {
	c.mu.Lock()
	m := c.members.Load()
	// A member hosted elsewhere (partitioned build) is not ours to crash.
	s, hosted, _ := m.find(id)
	if hosted {
		r, rank, _ := m.ring.Remove(id)
		c.publishLocked(r, spliceOut(m.slots, rank), m.partitioned)
		c.overflow[id] = s
		c.reclaimable++
	}
	c.mu.Unlock()
	if !hosted {
		return fmt.Errorf("%w: %v", ErrNodeNotFound, id)
	}
	return nil
}

// BuildStatic installs the membership of a static build in one step:
// the arena is sized once, slot i hosts the i-th point in ring order
// and starts from the Reset baseline, the points selected by owned (nil
// owns everything) are marked live, and fill populates the owned ring
// indices it is handed, one contiguous shard per worker. Slot and ring
// index coincide, so a fill is pure index arithmetic on (ring, i) with
// no interning, no locks and no per-node allocation; the shard barrier
// publishes it and the result is bit-identical at any GOMAXPROCS. The
// points not owned
// must be hosted by peer processes reachable through the transport (the
// wire transport routes by node id): per-node state is a pure function
// of the sorted membership, so the union across processes is
// bit-identical to the single-process build. The network must be fresh.
func (c *Core) BuildStatic(points []ring.Point, owned func(ring.Point) bool, fill func(r *ring.Ring, owned []int)) error {
	if c.regErr != nil {
		return c.regErr
	}
	r, err := ring.New(points)
	if err != nil {
		return fmt.Errorf("overlay: building static ring: %w", err)
	}
	c.growLocked(r.Len())
	c.used = r.Len()
	slots := make([]uint32, r.Len())
	ownedIdx := make([]int, 0, r.Len())
	for i, id := range r.Sorted() {
		s := uint32(i)
		c.ids[s] = uint64(id)
		c.hooks.Reset(s)
		if owned != nil && !owned(id) {
			slots[i] = s | remote
			continue
		}
		slots[i] = s
		ownedIdx = append(ownedIdx, i)
	}
	c.publishLocked(r, slots, len(ownedIdx) < r.Len())
	parallel.Shards(len(ownedIdx), parallel.Workers(len(ownedIdx)), func(lo, hi int) {
		fill(r, ownedIdx[lo:hi])
	})
	return nil
}
