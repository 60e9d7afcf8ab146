package kademlia

import (
	"errors"
	"fmt"
	"slices"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Config parameterizes a Kademlia network.
type Config struct {
	// BucketSize is Kademlia's k: the capacity of each k-bucket and the
	// closeness of FIND_NODE results. Default 16.
	BucketSize int
	// Alpha is the lookup parallelism: the number of candidates queried
	// per lookup round. Default 3.
	Alpha int
}

func (c Config) withDefaults() Config {
	if c.BucketSize <= 0 {
		c.BucketSize = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	return c
}

// Network is a collection of Kademlia nodes sharing one simulated
// transport. Membership, slot allocation and the transport binding are
// the embedded overlay.Core; the routing state lives in flat per-slot
// arrays and the bucket region pool (arena.go). Nodes are addressed
// internally by dense uint32 slot and externally by ring.Point
// identifier.
type Network struct {
	overlay.Core
	cfg Config
	// regStride is the word width of one bucket region: a header word,
	// BucketSize entry slots and the replacement cache.
	regStride int
	// maxLookupRounds aborts iterative lookups that fail to converge
	// (possible only with badly damaged routing tables).
	maxLookupRounds int
	st              arena
}

var _ overlay.Network = (*Network)(nil)

// Kademlia error conditions.
var (
	ErrNodeExists    = overlay.ErrNodeExists
	ErrNodeNotFound  = overlay.ErrNodeNotFound
	ErrLookupAborted = errors.New("kademlia: lookup aborted")
	ErrEmptyNetwork  = overlay.ErrEmptyNetwork
)

// newNetwork creates an empty Kademlia network over the given transport.
// It checks nothing: BuildStaticPartition, the one way in from outside
// the package, rejects a BucketSize above maxBucketSize first.
func newNetwork(cfg Config, tr simnet.Transport) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:             cfg,
		regStride:       1 + cfg.BucketSize + replacementCacheLen,
		maxLookupRounds: 128,
	}
	empty := make([][]uint32, 0)
	n.st.chunks.Store(&empty)
	n.Init(tr, overlay.Hooks{Grow: n.grow, Reset: n.resetSlot, Mark: n.markSlot, Drop: n.freeRegionRow, Handle: n.handleRPC, Pointers: n.pointers})
	return n
}

// Config returns the network's effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Node returns the handle of the live node with the given id.
func (n *Network) Node(id ring.Point) (Node, error) {
	s, ok := n.LiveSlot(id)
	if !ok {
		return Node{}, fmt.Errorf("%w: %v", ErrNodeNotFound, id)
	}
	return Node{n, s}, nil
}

// Create starts the first node of a fresh network.
func (n *Network) Create(id ring.Point) (Node, error) {
	s, err := n.AddNode(id)
	if err != nil {
		return Node{}, err
	}
	return Node{n, s}, nil
}

// Join adds a node through the existing node via, per the Kademlia join
// protocol: seed the routing table with the bootstrap contact, perform
// an iterative lookup of the node's own identifier (which both fills
// its buckets with the contacts it learns and announces it to every
// node it queries), then splice the node into the ownership ring
// between its successor and predecessor.
func (n *Network) Join(id, via ring.Point) error {
	if _, err := n.Node(via); err != nil {
		return fmt.Errorf("kademlia: join of %v: bootstrap %v: %w", id, via, err)
	}
	return n.JoinVia(id, via)
}

// JoinVia adds a locally hosted node through a bootstrap contact that
// may live on another process: identical to Join except the bootstrap
// is not required to be a local node — every interaction with it is an
// RPC, which the wire transport routes across processes. It is the
// join path wire-transport daemons use.
func (n *Network) JoinVia(id, via ring.Point) error {
	if _, ok := n.LiveSlot(id); ok {
		return fmt.Errorf("%w: %v", ErrNodeExists, id)
	}
	nd, err := n.Create(id)
	if err != nil {
		return err
	}
	// Any failure past this point must withdraw the half-joined node:
	// the self-lookup announces id into other tables, and a registered
	// node with self-looping ring pointers would otherwise be reported
	// as the owner of arbitrary keys by later resolutions.
	fail := func(step string, err error) error {
		_ = n.Crash(id)
		return fmt.Errorf("kademlia: join of %v: %s: %w", id, step, err)
	}
	n.touchContact(nd.slot, via)
	if err := n.lookupDiscard(id, id); err != nil {
		return fail("self-lookup", err)
	}
	// Resolve the clockwise successor among the EXISTING nodes (the
	// joiner excludes itself) and splice the ring pointers. At full
	// width: the joiner is its own XOR-closest contact, so the short
	// rule would converge before the first wave.
	succ, _, err := n.resolveOwner(id, id, n.cfg.BucketSize, id, true)
	if err != nil {
		return fail("resolving successor", err)
	}
	pred, _, err := n.Predecessor(id, succ)
	if err != nil {
		return fail("reading the ring", err)
	}
	if _, err := n.Call(id, succ, spliceReq{Pred: id, HasPred: true}); err != nil {
		return fail(fmt.Sprintf("splicing %v", succ), err)
	}
	if pred != succ {
		if _, err := n.Call(id, pred, spliceReq{Succ: id, HasSucc: true}); err != nil {
			return fail(fmt.Sprintf("splicing %v", pred), err)
		}
	} else {
		// Two-node ring: the single existing node is both successor and
		// predecessor; its succ pointer must also come to the joiner.
		if _, err := n.Call(id, succ, spliceReq{Succ: id, HasSucc: true}); err != nil {
			return fail(fmt.Sprintf("splicing %v", succ), err)
		}
	}
	nd.setRing(succ, pred)
	return nil
}

// LookupResult reports one iterative FIND_NODE lookup.
type LookupResult struct {
	// Closest holds up to k live contacts sorted by XOR distance to the
	// target, every one of them queried (or the initiator itself).
	Closest []ring.Point
	// Seen holds every identifier learned during the lookup, including
	// the initiator. Entries that were never queried may be stale.
	Seen []ring.Point
	// Rounds is the number of sequential query waves: with alpha
	// queries in flight per wave, it is the lookup's latency in the
	// paper's t_h model.
	Rounds int
	// RPCs is the number of FIND_NODE calls issued (half the messages).
	RPCs int
}

// drop delists a contact whose RPC failed: off the shortlist (it stays
// in the lookup's seen set, so it is never queried again) and out of
// the initiator's table.
func (n *Network) drop(ls *lookupScratch, id ring.Point) {
	ls.remove(id)
	n.removeContact(ls.self, id)
}

// FindClosest performs an iterative Kademlia lookup from node "from"
// toward target: each round queries the alpha XOR-closest unqueried
// candidates with FIND_NODE and merges their answers, until the k
// closest known contacts have all been queried. Every successfully
// queried contact is recorded in the initiator's routing table; dead
// candidates are evicted from it.
func (n *Network) FindClosest(from, target ring.Point) (LookupResult, error) {
	ls := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(ls)
	rounds, rpcs, err := n.lookup(ls, from, target, n.cfg.BucketSize)
	res := LookupResult{Rounds: rounds, RPCs: rpcs}
	if err != nil {
		return res, err
	}
	res.Seen = make([]ring.Point, len(ls.short))
	for i, e := range ls.short {
		res.Seen[i] = e.id
	}
	slices.Sort(res.Seen)
	res.Closest = ls.closest(make([]ring.Point, 0, n.cfg.BucketSize))
	return res, nil
}

// lookupDiscard runs a lookup for its side effects alone: the contacts
// it records in the initiator's table and announces to the nodes it
// queries.
func (n *Network) lookupDiscard(from, target ring.Point) error {
	ls := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(ls)
	_, _, err := n.lookup(ls, from, target, n.cfg.BucketSize)
	return err
}

// lookup is FindClosest without the result slices: it leaves the
// shortlist in ls for the caller to reduce and reports only the cost
// (LookupResult's Rounds and RPCs). The resolutions, refreshes and
// joins that run it need at most a few ids of the outcome. It has
// converged when the width XOR-closest known contacts have all
// answered: k where the k-closest set is the contract, 1 where only the
// XOR-closest node's reply is read (ResolveOwner). Waves are chosen the
// same way at every width, so a narrower lookup's RPC sequence is a
// prefix of a wider one's.
func (n *Network) lookup(ls *lookupScratch, from, target ring.Point, width int) (rounds, rpcs int, err error) {
	initiator, err := n.Node(from)
	if err != nil {
		return 0, 0, err
	}
	k, alpha := n.cfg.BucketSize, n.cfg.Alpha
	ls.reset(initiator.slot, from, target, k)
	ls.seed = n.closestIntoSlot(ls.self, ls.seed, target, k, false)
	for _, c := range ls.seed {
		ls.learn(c)
	}

	req := simnet.Message(findNodeReq{Target: target, K: k})
	for round := 0; ; round++ {
		if round >= n.maxLookupRounds {
			return rounds, rpcs, fmt.Errorf("%w: exceeded %d rounds toward %v", ErrLookupAborted, n.maxLookupRounds, target)
		}
		// The wave is the first alpha candidates among the k closest
		// known contacts: the shortlist's sorted window.
		ls.wave = ls.wave[:0]
		for i := 0; i < len(ls.short) && i < k && len(ls.wave) < alpha; i++ {
			e := &ls.short[i]
			if e.queried {
				continue
			}
			if i >= width && len(ls.wave) == 0 {
				break
			}
			e.queried = true
			ls.wave = append(ls.wave, e.id)
		}
		if len(ls.wave) == 0 {
			// Every one of the width closest known contacts has answered
			// (a failed call delists its contact): the lookup has
			// converged.
			return rounds, rpcs, nil
		}
		rounds++
		for _, id := range ls.wave {
			raw, err := n.Call(from, id, req)
			rpcs++
			if err != nil {
				n.drop(ls, id)
				continue
			}
			n.touchContact(ls.self, id)
			resp := raw.(*findNodeResp)
			for _, c := range resp.Closest {
				ls.learn(c)
			}
			putFindNodeResp(resp)
		}
	}
}

// OwnerStats reports the cost split of one ResolveOwner call.
type OwnerStats struct {
	// Rounds and LookupRPCs are the iterative XOR lookup's cost, as in
	// LookupResult.
	Rounds     int
	LookupRPCs int
	// ChaseRPCs counts the ring-pointer RPCs spent turning the XOR
	// result into the clockwise owner (successor/predecessor chases).
	ChaseRPCs int
}

// ResolveOwner resolves h(x) from node "from": the peer whose point is
// clockwise-closest to x. Kademlia routes by XOR, not by clockwise
// distance, so the resolution has two phases:
//
//  1. An iterative FIND_NODE toward x that stops once the XOR-closest
//     known contact z has answered (lookup width 1: phase 2 reads two
//     ids off the shortlist, not a k-closest set). z shares x's longest
//     common prefix b, and every node inside x's deepest non-empty
//     aligned 2^(64-b) block is among the k contacts z's own reply
//     names (blocks nest in the XOR metric: in-block distances are
//     below 2^(64-b), out-of-block distances above, and z's buckets
//     below 64-b hold the whole block while it has at most k nodes).
//  2. A ring-pointer verification. Let m be the learned node closest
//     counterclockwise-at-or-below x and c the closest clockwise-at-
//     or-above. If the block holds a node below x, m is x's exact
//     predecessor (any closer node would sit inside the block and have
//     been learned), so one successor RPC finishes; if the block only
//     holds nodes at or above x, c is the exact owner, confirmed by
//     one predecessor RPC. Either way the expected overhead is O(1)
//     RPCs; with damaged tables the chase walks pointer by pointer,
//     still converging because ring pointers are ground truth. The
//     lookup only seeds m and c: whatever it learned, the owner
//     returned is one a ring pointer vouched for. An m or c that turns
//     out dead is dropped and the next candidate tried.
func (n *Network) ResolveOwner(from, x ring.Point) (ring.Point, OwnerStats, error) {
	return n.resolveOwner(from, x, 1, 0, false)
}

// AsDHT returns the network viewed from the given caller node as the
// paper's abstract DHT: H is ResolveOwner, Next is one get-successor
// RPC, and every RPC is charged on the transport meter.
func (n *Network) AsDHT(caller ring.Point) (*overlay.DHT, error) {
	return overlay.NewDHT(&n.Core, n, caller)
}

// Owner implements overlay.Router via ResolveOwner.
func (n *Network) Owner(from, x ring.Point) (ring.Point, error) {
	owner, _, err := n.ResolveOwner(from, x)
	return owner, err
}

func (n *Network) resolveOwner(from, x ring.Point, width int, exclude ring.Point, hasExclude bool) (ring.Point, OwnerStats, error) {
	var stats OwnerStats
	ls := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(ls)
	rounds, rpcs, err := n.lookup(ls, from, x, width)
	if err != nil {
		return 0, stats, err
	}
	stats.Rounds, stats.LookupRPCs = rounds, rpcs
	var m, c ring.Point
	for {
		// m: closest at-or-below x (counterclockwise); c: closest at-or-
		// above x (clockwise), over every id the lookup learned. A node
		// exactly at x is both and owns x. Reduced straight from the
		// shortlist: ids are distinct, so both minima are order-independent.
		found := false
		for _, e := range ls.short {
			id := e.id
			if hasExclude && id == exclude {
				continue
			}
			if !found {
				m, c, found = id, id, true
				continue
			}
			if ring.Distance(id, x) < ring.Distance(m, x) { // distance from id clockwise to x
				m = id
			}
			if ring.Distance(x, id) < ring.Distance(x, c) { // distance from x clockwise to id
				c = id
			}
		}
		if !found {
			return 0, stats, fmt.Errorf("%w: no live contacts toward %v", ErrLookupAborted, x)
		}
		if c == x {
			return c, stats, nil
		}
		// Below side: if m is x's exact predecessor, its successor pointer
		// is the answer. A learned contact the lookup never queried may be
		// dead: it is dropped like a failed FIND_NODE and the next
		// candidate takes its place.
		s, err := n.Successor(from, m)
		stats.ChaseRPCs++
		if err != nil {
			if m == from {
				return 0, stats, err
			}
			n.drop(ls, m)
			continue
		}
		if (!hasExclude || s != exclude) && ring.BetweenIncl(m, s, x) {
			return s, stats, nil
		}
		// Above side: if c is the exact owner, its predecessor confirms it.
		p, _, err := n.Predecessor(from, c)
		stats.ChaseRPCs++
		if err != nil {
			if c == from {
				return 0, stats, err
			}
			n.drop(ls, c)
			continue
		}
		if (!hasExclude || p != exclude) && ring.BetweenIncl(p, c, x) {
			return c, stats, nil
		}
		break
	}
	// Fallback (imperfect routing tables): walk successor pointers
	// clockwise from m. Ring pointers are ground truth, so the walk
	// terminates at the true owner. An excluded node (a joiner running
	// this resolution) is never the target of live ring pointers, so no
	// exclusion check is needed here.
	maxChase := n.chaseBound()
	cur := m
	for step := 0; step < maxChase; step++ {
		next, err := n.Successor(from, cur)
		if err != nil {
			return 0, stats, err
		}
		stats.ChaseRPCs++
		if ring.BetweenIncl(cur, next, x) {
			return next, stats, nil
		}
		cur = next
	}
	return 0, stats, fmt.Errorf("%w: owner chase for %v exceeded %d steps", ErrLookupAborted, x, maxChase)
}

// RefreshNode runs one maintenance round for node id:
//
//  1. k-bucket upkeep: probe every entry of each non-empty bucket in
//     least-recently-seen-first order, evicting dead contacts and
//     promoting replacement-cache contacts into freed slots (a full
//     liveness sweep; Kademlia's on-insert rule pings only the LRU
//     entry, but insert-time pings would nest RPCs inside handlers,
//     so all probing is concentrated here).
//  2. Bucket refresh: an iterative lookup toward a point in bucket
//     "refreshBucket"'s distance range, repopulating it with live
//     contacts.
//  3. Ring repair: if the successor pointer is dead, re-resolve it
//     from the surviving contacts and re-splice the ring.
func (n *Network) RefreshNode(id ring.Point, refreshBucket int) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	for i := 0; i < idBits; i++ {
		entries := n.entriesOfSlot(nd.slot, i)
		if len(entries) == 0 {
			continue
		}
		// Probe least-recently-seen first, the Kademlia eviction order:
		// dead entries are dropped, live ones move to the fresh end, and
		// replacement-cache contacts are promoted into freed slots.
		for _, e := range entries {
			if n.Ping(id, e) != nil {
				n.removeContact(nd.slot, e)
			} else {
				n.markAliveContact(nd.slot, i, e)
			}
		}
		n.promoteBucket(nd.slot, i)
	}
	if refreshBucket >= 0 && refreshBucket < idBits {
		// A target with bit "refreshBucket" flipped lands in that
		// bucket's distance octave. A failed refresh (badly damaged
		// tables) is ignored: ring repair below matters more after
		// churn, and later rounds keep repairing the buckets.
		target := ring.Point(uint64(id) ^ (uint64(1) << uint(refreshBucket)))
		_ = n.lookupDiscard(id, target)
	}
	return n.repairRing(nd)
}

// chaseBound caps a ring-pointer walk at every live node plus slack,
// the tight correctness bound. Its O(n) count is only taken on the
// rare walk paths, keeping the common case O(1).
func (n *Network) chaseBound() int { return n.NumAlive() + 8 }

// repairRing checks the node's successor pointer and re-splices the
// ring around dead neighbors.
func (n *Network) repairRing(nd Node) error {
	id := nd.ID()
	succ := nd.Successor()
	if succ != id {
		if n.Ping(id, succ) == nil {
			// Successor alive; reconcile with its predecessor pointer.
			p, _, err := n.Predecessor(id, succ)
			if err == nil && p != id {
				alive := n.Ping(id, p) == nil
				if alive && p != succ && ring.BetweenIncl(id, succ, p) {
					// The successor knows a live node between us — a
					// joiner whose splice toward us was lost, or a
					// repair that outran ours. Adopt it and announce
					// ourselves (Chord's stabilize rule); without this
					// tightening step the ring wedges permanently with
					// the middle node invisible to its predecessor.
					n.setSucc(nd.slot, p)
					_, _ = n.Call(id, p, spliceReq{Pred: id, HasPred: true})
					return nil
				}
				if !alive || !ring.BetweenIncl(id, succ, p) {
					// Its predecessor is dead or behind us: we are the
					// rightful predecessor — re-assert.
					_, _ = n.Call(id, succ, spliceReq{Pred: id, HasPred: true})
				}
			}
			return nil
		}
		n.removeContact(nd.slot, succ)
	}
	// Successor dead (or self while others exist): pick the best live
	// candidate and tighten it by walking predecessor pointers.
	best, ok := n.bestLiveSuccessorCandidate(nd)
	if !ok {
		return nil // nothing else alive; ring is just this node
	}
	maxChase := n.chaseBound()
	for step := 0; step < maxChase; step++ {
		p, _, err := n.Predecessor(id, best)
		if err != nil || p == best {
			break
		}
		if n.Ping(id, p) != nil {
			break // dead predecessor: best is the boundary
		}
		if !ring.BetweenIncl(id, best, p) || p == id {
			break
		}
		best = p
	}
	n.setSucc(nd.slot, best)
	_, _ = n.Call(id, best, spliceReq{Pred: id, HasPred: true})
	return nil
}

// bestLiveSuccessorCandidate returns the live contact clockwise-
// closest after id, gathered from the node's table plus a lookup.
func (n *Network) bestLiveSuccessorCandidate(nd Node) (ring.Point, bool) {
	id := nd.ID()
	cands := n.Neighbors(nd.slot)
	ls := lookupScratchPool.Get().(*lookupScratch)
	defer lookupScratchPool.Put(ls)
	if _, _, err := n.lookup(ls, id, ring.Point(uint64(id)+1), n.cfg.BucketSize); err == nil {
		cands = ls.closest(cands)
	}
	var best ring.Point
	found := false
	for _, c := range cands {
		if c == id {
			continue
		}
		if found && ring.Distance(id, c) >= ring.Distance(id, best) {
			continue
		}
		if n.Ping(id, c) != nil {
			n.removeContact(nd.slot, c)
			continue
		}
		best, found = c, true
	}
	return best, found
}

// MaintainNode runs one maintenance round for node id: RefreshNode with
// the bucket-refresh index rotating with round. Kademlia has no fingers
// to fix. Per-node errors are ignored: the node may crash mid-round; the
// survivors keep repairing.
func (n *Network) MaintainNode(id ring.Point, round, _ int) {
	_ = n.RefreshNode(id, round%idBits)
}

// Maintain executes the given number of synchronous maintenance rounds
// (overlay.Maintain over MaintainNode). Enough rounds after churn
// restore correct buckets and a perfect ring; tests assert this via
// VerifyRing and VerifyTables.
func (n *Network) Maintain(rounds, fingersPerRound int) {
	overlay.Maintain(n, rounds, fingersPerRound)
}

// VerifyTables checks structural routing-table invariants for every
// live node: entries are live members, sit in the bucket matching
// their XOR distance, contain no duplicates, and never exceed k.
func (n *Network) VerifyTables() error {
	members := make(map[ring.Point]bool)
	for _, id := range n.Members() {
		members[id] = true
	}
	if len(members) == 0 {
		return ErrEmptyNetwork
	}
	for id := range members {
		nd, err := n.Node(id)
		if err != nil {
			return err
		}
		for i := 0; i < idBits; i++ {
			entries := n.entriesOfSlot(nd.slot, i)
			if len(entries) > n.cfg.BucketSize {
				return fmt.Errorf("kademlia: node %v bucket %d has %d entries (k=%d)", id, i, len(entries), n.cfg.BucketSize)
			}
			seen := make(map[ring.Point]bool, len(entries))
			for _, e := range entries {
				if seen[e] {
					return fmt.Errorf("kademlia: node %v bucket %d duplicate entry %v", id, i, e)
				}
				seen[e] = true
				if !members[e] {
					return fmt.Errorf("kademlia: node %v bucket %d holds dead contact %v", id, i, e)
				}
				if got := bucketIndex(xorDist(id, e)); got != i {
					return fmt.Errorf("kademlia: node %v contact %v in bucket %d, belongs in %d", id, e, i, got)
				}
			}
		}
	}
	return nil
}

// BuildStatic constructs a fully populated Kademlia network over the
// given points in one step (overlay.Core.BuildStatic): every node's
// k-buckets hold the k XOR-closest members of each distance octave and
// the ring pointers are exact. It is the starting state for experiments
// that study the sampler rather than overlay convergence. The per-node
// fill is O(log^2 n + k log n) via sorted-range trie descent instead of
// the O(n log n) full scan-and-sort the incremental path would pay per
// node.
func BuildStatic(cfg Config, tr simnet.Transport, points []ring.Point) (*Network, error) {
	return BuildStaticPartition(cfg, tr, points, nil)
}

// BuildStaticPartition constructs the local shard of a fully populated
// network that spans multiple processes: the full membership defines
// every node's buckets and ring pointers, but only the nodes selected
// by owned are hosted on this process. A nil owned predicate owns
// everything, which is exactly BuildStatic. A BucketSize above
// maxBucketSize is an error.
func BuildStaticPartition(cfg Config, tr simnet.Transport, points []ring.Point, owned func(ring.Point) bool) (*Network, error) {
	if k := cfg.withDefaults().BucketSize; k > maxBucketSize {
		return nil, fmt.Errorf("kademlia: bucket size %d outside 1..%d", k, maxBucketSize)
	}
	n := newNetwork(cfg, tr)
	err := n.BuildStatic(points, owned, func(r *ring.Ring, idx []int) {
		scratch := make([]uint32, 0, n.cfg.BucketSize)
		rb := regionBatcher{n: n}
		for _, i := range idx {
			scratch = n.fillStaticSlot(r, i, scratch, &rb)
		}
		rb.release()
	})
	if err != nil {
		return nil, fmt.Errorf("kademlia: %w", err)
	}
	return n, nil
}

// fillStaticSlot populates slot i's buckets (slot = ring rank, by
// construction) with the k XOR-closest members of each distance
// octave, farthest first so the closest contacts sit at the most-
// recently-seen end — the same state the old full scan-and-sort fill
// produced, computed from the sorted membership instead: bucket b's
// candidates form one contiguous value range (the aligned block
// reached by flipping bit b of the node's id and clearing the bits
// below), and the k XOR-closest within the range are selected by
// descending the implicit binary trie, visiting only subranges that
// can still contribute. The range's ends are ranks in the ring's
// bucket directory.
func (n *Network) fillStaticSlot(r *ring.Ring, i int, scratch []uint32, rb *regionBatcher) []uint32 {
	sorted := r.Sorted()
	id := uint64(sorted[i])
	k := n.cfg.BucketSize
	n.st.succs[i] = uint32((i + 1) % len(sorted))
	n.st.preds[i] = uint32((i - 1 + len(sorted)) % len(sorted))
	row := n.st.bucketRefs[i*idBits : i*idBits+idBits]
	for b := 0; b < idBits; b++ {
		base := (id ^ (uint64(1) << uint(b))) &^ (uint64(1)<<uint(b) - 1)
		lo, _ := r.Rank(ring.Point(base))
		var hi int
		if end := base + uint64(1)<<uint(b); end == 0 {
			hi = len(sorted) // bucket 63's upper block ends at 2^64
		} else {
			hi, _ = r.Rank(ring.Point(end))
		}
		if lo >= hi {
			continue
		}
		scratch = collectXorClosest(scratch[:0], sorted, lo, hi, base, b, id, k)
		// Insertion-sort by descending XOR distance (≤ k elements, all
		// distances distinct) and install: entries order farthest →
		// closest matches the touch-farthest-first order of the
		// incremental path.
		for x := 1; x < len(scratch); x++ {
			v := scratch[x]
			dv := uint64(sorted[v]) ^ id
			j := x - 1
			for j >= 0 && uint64(sorted[scratch[j]])^id < dv {
				scratch[j+1] = scratch[j]
				j--
			}
			scratch[j+1] = v
		}
		ref := rb.alloc()
		reg := n.region(ref)
		copy(reg[1:], scratch)
		regSetLens(reg, len(scratch), 0)
		row[b] = ref
	}
	return scratch
}

// collectXorClosest appends the sorted-membership indices of the
// up-to-rem XOR-closest members to id within sorted[lo:hi), an aligned
// block of size 2^level starting at base. Output order is unspecified;
// callers sort. The descent takes the half sharing id's next bit first
// (strictly closer than the other half), so only ranges that can still
// contribute are visited. Indices double as arena slots during the
// static build, so the bucket entries need no ID translation.
func collectXorClosest(dst []uint32, sorted []ring.Point, lo, hi int, base uint64, level int, id uint64, rem int) []uint32 {
	for {
		if rem <= 0 || lo >= hi {
			return dst
		}
		if hi-lo <= rem || level == 0 {
			for j := lo; j < hi; j++ {
				dst = append(dst, uint32(j))
			}
			return dst
		}
		half := uint64(1) << uint(level-1)
		m, _ := slices.BinarySearch(sorted[lo:hi], ring.Point(base+half))
		mid := lo + m
		if id&half == 0 {
			// Lower half is XOR-closer: everything in it beats
			// everything in the upper half.
			before := len(dst)
			dst = collectXorClosest(dst, sorted, lo, mid, base, level-1, id, rem)
			rem -= len(dst) - before
			lo, base, level = mid, base+half, level-1
		} else {
			before := len(dst)
			dst = collectXorClosest(dst, sorted, mid, hi, base+half, level-1, id, rem)
			rem -= len(dst) - before
			hi, level = mid, level-1
		}
	}
}
