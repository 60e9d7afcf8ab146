package kademlia

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// The selection routines the bucket-order walk and the sorted shortlist
// replaced, kept as test-only references: both are the obviously
// correct O(everything) formulations, and the (XOR distance, id) order
// is total, so the production routines must agree with them exactly.

// closestFullScan is the reference for closestIntoSlot: a bounded
// k-best over every entry of every bucket, in table order.
func (n *Network) closestFullScan(s uint32, target ring.Point, count int, includeSelf bool) []ring.Point {
	var best []ring.Point
	if count <= 0 {
		return best
	}
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	self := n.ID(s)
	row := a.bucketRefs[int(s)*idBits : int(s)*idBits+idBits]
	for _, ref := range row {
		if ref == noRegion {
			continue
		}
		for _, c := range regEntries(n.region(ref)) {
			best = insertClosest(best, target, count, n.ID(c))
		}
	}
	st.RUnlock()
	if includeSelf {
		best = insertClosest(best, target, count, self)
	}
	return best
}

// insertClosest places id into the sorted bounded best-list (by XOR
// distance to target, ties by id) if it beats the current worst: the
// reference's one-id-at-a-time selection.
func insertClosest(best []ring.Point, target ring.Point, count int, id ring.Point) []ring.Point {
	d := xorDist(target, id)
	if len(best) == count {
		wd := xorDist(target, best[len(best)-1])
		if d > wd || (d == wd && id >= best[len(best)-1]) {
			return best
		}
		best = best[:len(best)-1]
	}
	i := 0
	for i < len(best) {
		bd := xorDist(target, best[i])
		if bd > d || (bd == d && best[i] > id) {
			break
		}
		i++
	}
	best = append(best, 0)
	copy(best[i+1:], best[i:])
	best[i] = id
	return best
}

// lookup candidate states of the reference lookup.
const (
	stateCandidate = iota
	stateQueried
	stateFailed
)

// findClosestMapRef is the reference for FindClosest: candidate states
// in a map, and every round re-selects the k closest non-failed ids by
// iterating the whole map.
func (n *Network) findClosestMapRef(from, target ring.Point) (LookupResult, error) {
	initiator, err := n.Node(from)
	if err != nil {
		return LookupResult{}, err
	}
	self := initiator.slot
	k, alpha := n.cfg.BucketSize, n.cfg.Alpha
	state := map[ring.Point]int{from: stateQueried}
	for _, c := range n.closestFullScan(self, target, k, false) {
		state[c] = stateCandidate
	}
	var res LookupResult
	req := simnet.Message(findNodeReq{Target: target, K: k})
	for round := 0; ; round++ {
		if round >= n.maxLookupRounds {
			return res, fmt.Errorf("%w: exceeded %d rounds toward %v", ErrLookupAborted, n.maxLookupRounds, target)
		}
		var best, wave []ring.Point
		for id, st := range state {
			if st != stateFailed {
				best = insertClosest(best, target, k, id)
			}
		}
		for _, id := range best {
			if state[id] == stateCandidate {
				wave = append(wave, id)
				if len(wave) >= alpha {
					break
				}
			}
		}
		if len(wave) == 0 {
			break
		}
		res.Rounds++
		for _, id := range wave {
			raw, err := n.Call(from, id, req)
			res.RPCs++
			if err != nil {
				state[id] = stateFailed
				n.removeContact(self, id)
				continue
			}
			state[id] = stateQueried
			n.touchContact(self, id)
			resp := raw.(*findNodeResp)
			for _, c := range resp.Closest {
				if _, known := state[c]; !known {
					state[c] = stateCandidate
				}
			}
			putFindNodeResp(resp)
		}
	}
	res.Seen = make([]ring.Point, 0, len(state))
	for id, st := range state {
		if st != stateFailed {
			res.Seen = append(res.Seen, id)
		}
	}
	slices.Sort(res.Seen)
	res.Closest = make([]ring.Point, 0, k)
	for id, st := range state {
		if st == stateQueried {
			res.Closest = insertClosest(res.Closest, target, k, id)
		}
	}
	return res, nil
}

// sameSet reports whether got names exactly want's ids, in any order.
// want is a full-scan selection, distinct by construction, so equal
// sorted copies mean got names each of them once and nothing else.
func sameSet(got, want []ring.Point) bool {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// checkClosestAgainstFullScan compares closestIntoSlot, as a set, with
// the full scan for every live node of net over a target set that
// exercises the walk's corners: self (no set bits), self^1 and
// self^2^63 (one set bit at either end), members (exact hits) and
// random points. The reply's order is no part of the contract: the
// lookup places each id on its own, and TestLookupIgnoresReplyOrder
// holds every lookup to that.
func checkClosestAgainstFullScan(t *testing.T, net *Network, rng *rand.Rand, stage string) {
	t.Helper()
	members := net.Members()
	k := net.cfg.BucketSize
	var buf []ring.Point
	for _, id := range members {
		s, ok := net.LiveSlot(id)
		if !ok {
			t.Fatalf("%s: member %v has no live slot", stage, id)
		}
		targets := []ring.Point{
			id, id ^ 1, id ^ (1 << 63),
			members[rng.IntN(len(members))], members[rng.IntN(len(members))],
			ring.Point(rng.Uint64()), ring.Point(rng.Uint64()),
		}
		for _, target := range targets {
			for _, count := range []int{1, k, 2 * k} {
				for _, includeSelf := range []bool{false, true} {
					want := net.closestFullScan(s, target, count, includeSelf)
					buf = net.closestIntoSlot(s, buf, target, count, includeSelf)
					if !sameSet(buf, want) {
						t.Fatalf("%s: k=%d node %v target %v count %d includeSelf %v:\n got %v\nwant %v",
							stage, k, id, target, count, includeSelf, buf, want)
					}
				}
			}
		}
	}
}

func TestClosestBucketOrderMatchesFullScan(t *testing.T) {
	t.Parallel()
	// k = 40 fills buckets far past a reply's partial share, so the
	// selection partitions more than once.
	for _, k := range []int{1, 2, 16, 40} {
		r := testRing(t, 60+uint64(k), 192)
		pts := r.Points()
		rng := rand.New(rand.NewPCG(61, uint64(k)))
		net, err := BuildStatic(Config{BucketSize: k}, simnet.NewDirect(), pts[:128])
		if err != nil {
			t.Fatal(err)
		}
		checkClosestAgainstFullScan(t, net, rng, "built")

		// Churn: joins fill replacement caches of the full buckets they
		// land in, crashes leave dead entries, and the refresh rounds
		// evict those and promote cached contacts into the freed slots.
		for i, p := range pts[128:] {
			if err := net.Join(p, pts[i%128]); err != nil {
				t.Fatalf("join of %v: %v", p, err)
			}
		}
		checkClosestAgainstFullScan(t, net, rng, "joined")
		for i := 0; i < 48; i++ {
			members := net.Members()
			if err := net.Crash(members[rng.IntN(len(members))]); err != nil {
				t.Fatal(err)
			}
		}
		checkClosestAgainstFullScan(t, net, rng, "crashed")
		for round := 0; round < 3; round++ {
			net.Maintain(1, 0)
			checkClosestAgainstFullScan(t, net, rng, fmt.Sprintf("refreshed %d", round))
		}
	}
}

// fuzzContact spreads a byte over the identifier space: 256 contacts,
// half of them in the far bucket of any node, so that buckets overflow
// into replacement caches at every k under test and a reply's last
// bucket often fits only in part.
func fuzzContact(b byte) ring.Point {
	return ring.Point((uint64(b) + 1) * 0x9e3779b97f4a7c15)
}

// bucketIDs returns bucket b of slot s, entries then replacement cache,
// as identifiers. It reads the region without writing to it: the
// entry view's capacity runs on into the region's words.
func (n *Network) bucketIDs(s uint32, b int) []ring.Point {
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	ref := n.st.bucketRefs[int(s)*idBits+b]
	if ref == noRegion {
		return nil
	}
	reg := n.region(ref)
	var out []ring.Point
	for _, c := range regEntries(reg) {
		out = append(out, n.ID(c))
	}
	for _, c := range regCache(reg, n.cfg.BucketSize) {
		out = append(out, n.ID(c))
	}
	return out
}

// FuzzFindNodeMatchesFullScan holds the FIND_NODE handler — the
// sender's touch and the selection under one stripe hold — to the
// sequence it replaced: touchContact, then the full-scan selection.
// Two identical one-node tables take fuzzed touch/remove/promote
// sequences; then one answers a FIND_NODE through handleRPC and the
// other runs the reference. The reply must name the same ids, in any
// order, and every bucket (entries and replacement cache, in order)
// must agree.
func FuzzFindNodeMatchesFullScan(f *testing.F) {
	f.Add(uint64(0), byte(0), byte(0), []byte{})
	f.Add(uint64(1)<<63, byte(3), byte(255), []byte{0, 1, 0, 2, 0, 3, 2, 1, 3, 2})
	rng := rand.New(rand.NewPCG(73, 74))
	for i := 0; i < 64; i++ {
		script := make([]byte, rng.IntN(600))
		for j := range script {
			script[j] = byte(rng.Uint32())
		}
		f.Add(rng.Uint64(), byte(i), byte(rng.Uint32()), script)
	}
	self := ring.Point(0x5bd1e9955bd1e995)
	f.Fuzz(func(t *testing.T, target uint64, shape, sender byte, script []byte) {
		// shape picks k from {1, 2, 16, 40} and the request's K from
		// {k, 1, 2k, 0}; a sender byte of 255 is the node itself.
		k := []int{1, 2, 16, 40}[shape%4]
		count := []int{k, 1, 2 * k, 0}[shape/4%4]
		from := fuzzContact(sender)
		if sender == 255 {
			from = self
		}
		build := func() (*Network, uint32) {
			net := newNetwork(Config{BucketSize: k}, simnet.NewDirect())
			nd, err := net.Create(self)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(script); i += 2 {
				c := fuzzContact(script[i+1])
				switch script[i] % 4 {
				case 0, 1:
					net.touchContact(nd.slot, c)
				case 2:
					net.removeContact(nd.slot, c)
				case 3:
					if d := xorDist(self, c); d != 0 {
						net.promoteBucket(nd.slot, bucketIndex(d))
					}
				}
			}
			return net, nd.slot
		}
		got, gs := build()
		want, ws := build()

		resp, err := got.handleRPC(gs, simnet.NodeID(from), findNodeReq{Target: ring.Point(target), K: count})
		if err != nil {
			t.Fatal(err)
		}
		if from != self {
			want.touchContact(ws, from)
		}
		wantClosest := want.closestFullScan(ws, ring.Point(target), count, true)
		if g := resp.(*findNodeResp).Closest; !sameSet(g, wantClosest) {
			t.Fatalf("k=%d K=%d sender %v target %#x: reply\n got %v\nwant %v", k, count, from, target, g, wantClosest)
		}
		for b := 0; b < idBits; b++ {
			if g, w := got.bucketIDs(gs, b), want.bucketIDs(ws, b); !slices.Equal(g, w) {
				t.Fatalf("k=%d sender %v: bucket %d differs after the FIND_NODE:\n got %v\nwant %v", k, from, b, g, w)
			}
		}
	})
}

// scriptedTransport answers every call from a byte script instead of
// from registered handlers, and logs the destinations: the lookup under
// test sees arbitrary replies, and two lookups fed the same script must
// produce the same log.
type scriptedTransport struct {
	script []byte
	pos    int
	log    []simnet.NodeID
	meter  simnet.Meter
}

var errScripted = errors.New("scripted failure")

// fuzzUniverse is the number of distinct ids scripted replies draw
// from: small, so replies collide with the initiator, with each other,
// with known contacts and with failed ones all the time.
const fuzzUniverse = 48

// fuzzID spreads a script byte over the identifier space.
func fuzzID(b byte) ring.Point {
	return ring.Point(uint64(b%fuzzUniverse+1) * 0x9e3779b97f4a7c15)
}

func (tr *scriptedTransport) next() (byte, bool) {
	if tr.pos >= len(tr.script) {
		return 0, false
	}
	b := tr.script[tr.pos]
	tr.pos++
	return b, true
}

// Call consumes one op byte — every fifth value fails the call, the
// rest give the reply length (0..24, so longer than any k under test) —
// and then one byte per advertised id, in script order: unsorted and
// with repeats. An exhausted script answers with empty replies.
func (tr *scriptedTransport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	tr.log = append(tr.log, to)
	op, _ := tr.next()
	if op%5 == 4 {
		return nil, errScripted
	}
	resp := newFindNodeResp()
	for i := 0; i < int(op)%25; i++ {
		b, ok := tr.next()
		if !ok {
			break
		}
		resp.Closest = append(resp.Closest, fuzzID(b))
	}
	return resp, nil
}

func (tr *scriptedTransport) Register(simnet.NodeID, simnet.Handler) error { return nil }
func (tr *scriptedTransport) RegisterMulti(func(simnet.NodeID) bool, simnet.MultiHandler) error {
	return nil
}
func (tr *scriptedTransport) Deregister(simnet.NodeID) {}
func (tr *scriptedTransport) Meter() *simnet.Meter     { return &tr.meter }
func (tr *scriptedTransport) Close() error             { return nil }

// scriptedNetwork builds a one-node network over a scripted transport:
// the initiator fuzzID(0) with the given contacts in its table and the
// given lookup round budget.
func scriptedNetwork(t *testing.T, cfg Config, rounds int, seeds, script []byte) (*Network, *scriptedTransport) {
	t.Helper()
	tr := &scriptedTransport{script: script}
	net := newNetwork(cfg, tr)
	net.maxLookupRounds = rounds
	nd, err := net.Create(fuzzID(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range seeds {
		net.touchContact(nd.slot, fuzzID(b))
	}
	return net, tr
}

func FuzzLookupShortlistMatchesReference(f *testing.F) {
	f.Add(uint64(0), byte(0), []byte{})
	f.Add(uint64(1)<<63, byte(1), []byte{1, 2, 3})
	// A reply naming the initiator, itself twice and a contact that
	// then fails and is re-advertised.
	f.Add(uint64(7), byte(2), []byte{1, 2, 3, 4, 4, 0, 3, 3, 9, 9, 4, 3, 9, 9, 9, 2, 9, 3})
	// k = 1, alpha = 2, one seed contact A: A answers naming a closer B,
	// which pushes the queried A out of the window into the tail; B's
	// call fails and the refill pulls A back. A keeps its queried flag,
	// so the lookup converges without asking A twice.
	f.Add(uint64(0x4b0e80878e88145d), byte(16), []byte{133, 201, 51, 14})
	rng := rand.New(rand.NewPCG(71, 72))
	for i := 0; i < 64; i++ {
		script := make([]byte, rng.IntN(400))
		for j := range script {
			script[j] = byte(rng.Uint32())
		}
		f.Add(rng.Uint64(), byte(i), script)
	}
	f.Fuzz(func(t *testing.T, target uint64, shape byte, script []byte) {
		// shape picks k from {1, 2, 3, 16}, alpha from {1, 2, 3} and how
		// many of the script's first bytes seed the initiator's table;
		// its top bit cuts the round budget so that aborts compare too.
		cfg := Config{BucketSize: []int{1, 2, 3, 16}[shape%4], Alpha: int(shape/4)%3 + 1}
		rounds := 128
		if shape >= 128 {
			rounds = 2
		}
		nseed := min(len(script), int(shape/12)%8)
		seeds, script := script[:nseed], script[nseed:]
		from := fuzzID(0)

		got, gotTr := scriptedNetwork(t, cfg, rounds, seeds, script)
		want, wantTr := scriptedNetwork(t, cfg, rounds, seeds, script)
		gotRes, gotErr := got.FindClosest(from, ring.Point(target))
		wantRes, wantErr := want.findClosestMapRef(from, ring.Point(target))

		if !slices.Equal(gotTr.log, wantTr.log) {
			t.Fatalf("RPC sequence differs:\n got %v\nwant %v", gotTr.log, wantTr.log)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error differs: got %v, want %v", gotErr, wantErr)
		}
		if gotRes.Rounds != wantRes.Rounds || gotRes.RPCs != wantRes.RPCs {
			t.Fatalf("cost differs: got %d rounds %d RPCs, want %d rounds %d RPCs",
				gotRes.Rounds, gotRes.RPCs, wantRes.Rounds, wantRes.RPCs)
		}
		if !slices.Equal(gotRes.Closest, wantRes.Closest) {
			t.Fatalf("Closest differs:\n got %v\nwant %v", gotRes.Closest, wantRes.Closest)
		}
		if !slices.Equal(gotRes.Seen, wantRes.Seen) {
			t.Fatalf("Seen differs:\n got %v\nwant %v", gotRes.Seen, wantRes.Seen)
		}
		// Same touches and evictions, in the same order: the tables end
		// up entry for entry alike.
		gotSlot, _ := got.LiveSlot(from)
		wantSlot, _ := want.LiveSlot(from)
		for b := 0; b < idBits; b++ {
			if g, w := got.entriesOfSlot(gotSlot, b), want.entriesOfSlot(wantSlot, b); !slices.Equal(g, w) {
				t.Fatalf("bucket %d differs after the lookup:\n got %v\nwant %v", b, g, w)
			}
		}

		// The width only decides when to stop: h's lookup (width 1) fed
		// the same script issues a prefix of the full-width RPC sequence.
		short, shortTr := scriptedNetwork(t, cfg, rounds, seeds, script)
		_, shortRPCs, shortErr := short.lookup(new(lookupScratch), from, ring.Point(target), 1)
		if shortRPCs != len(shortTr.log) || shortRPCs > len(gotTr.log) || !slices.Equal(shortTr.log, gotTr.log[:shortRPCs]) {
			t.Fatalf("width-1 RPC sequence is not a prefix of the width-%d one:\n got %v\nwant a prefix of %v", cfg.BucketSize, shortTr.log, gotTr.log)
		}
		if shortErr != nil && gotErr == nil {
			t.Fatalf("width 1 aborted where width %d converged: %v", cfg.BucketSize, shortErr)
		}
	})
}

// fillStaticSlotRef is the reference for fillStaticSlot: the fill it
// replaced, which searched both ends of every one of the 64 buckets'
// ranges and insertion-sorted the descent's near-first output into
// farthest-first order.
func (n *Network) fillStaticSlotRef(r *ring.Ring, i int, scratch []uint32, rb *regionBatcher) []uint32 {
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
			hi = len(sorted)
		} else {
			hi, _ = r.Rank(ring.Point(end))
		}
		if lo >= hi {
			continue
		}
		scratch = collectXorClosest(scratch[:0], sorted, lo, hi, base, b, id, k)
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

// buildStaticRef is BuildStaticPartition over fillStaticSlotRef.
func buildStaticRef(t *testing.T, cfg Config, points []ring.Point, owned func(ring.Point) bool) *Network {
	t.Helper()
	n := newNetwork(cfg, simnet.NewDirect())
	err := n.BuildStatic(points, owned, func(r *ring.Ring, idx []int) {
		scratch := make([]uint32, 0, n.cfg.BucketSize)
		rb := regionBatcher{n: n}
		for _, i := range idx {
			scratch = n.fillStaticSlotRef(r, i, scratch, &rb)
		}
		rb.release()
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// staticShapes returns point sets of n distinct points in the shapes
// that reach the fill's corners: uniform points; pairs one unit apart
// (a lowest bucket of 0); points at 0 and 2^64-1 (bucket 63 from both
// ends of the circle, and a node with one numeric neighbour only); and
// clusters under shared 40-bit prefixes, so that a node's lowest
// non-empty bucket sits well above 0 and buckets above it are empty
// between the clusters' levels.
func staticShapes(rng *rand.Rand, n int) []staticShape {
	fill := func(gen func(i int) ring.Point) []ring.Point {
		seen := make(map[ring.Point]bool, n)
		var pts []ring.Point
		for i := 0; len(pts) < n; i++ {
			if p := gen(i); !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		return pts
	}
	centers := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), 0, math.MaxUint64}
	return []staticShape{
		{"uniform", fill(func(int) ring.Point { return ring.Point(rng.Uint64()) })},
		{"adjacent", fill(func(i int) ring.Point {
			p := rng.Uint64() &^ 1
			return ring.Point(p | uint64(i&1))
		})},
		{"ends", fill(func(i int) ring.Point {
			switch i {
			case 0:
				return math.MaxUint64
			case 1:
				return 0
			}
			return ring.Point(rng.Uint64())
		})},
		{"clustered", fill(func(int) ring.Point {
			c := centers[rng.IntN(len(centers))]
			return ring.Point(c&^(1<<24-1) | rng.Uint64()>>40)
		})},
	}
}

// staticShape is one named point set of staticShapes.
type staticShape struct {
	name string
	pts  []ring.Point
}

// TestFillStaticSlotMatchesReference holds the static fill to the one
// it replaced: every slot's buckets, entries, cache and order, and ring
// pointers equal, at every k and shape, on a whole build and on a
// partition that hosts every third point's node.
func TestFillStaticSlotMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(43, 43))
	partition := func(p ring.Point) bool { return uint64(p)%3 == 0 }
	for _, n := range []int{1, 2, 3, 64, 1000} {
		for _, shape := range staticShapes(rng, n) {
			pts := shape.pts
			for _, k := range []int{1, 2, 16, 40} {
				for _, owned := range []func(ring.Point) bool{nil, partition} {
					cfg := Config{BucketSize: k}
					got, err := BuildStaticPartition(cfg, simnet.NewDirect(), pts, owned)
					if err != nil {
						t.Fatal(err)
					}
					want := buildStaticRef(t, cfg, pts, owned)
					where := fmt.Sprintf("%s n=%d k=%d partitioned=%t", shape.name, n, k, owned != nil)
					for s := uint32(0); s < uint32(n); s++ {
						if got.st.succs[s] != want.st.succs[s] || got.st.preds[s] != want.st.preds[s] {
							t.Fatalf("%s slot %d: ring pointers %d/%d, reference %d/%d",
								where, s, got.st.succs[s], got.st.preds[s], want.st.succs[s], want.st.preds[s])
						}
						for b := 0; b < idBits; b++ {
							if g, w := got.bucketIDs(s, b), want.bucketIDs(s, b); !slices.Equal(g, w) {
								t.Fatalf("%s slot %d bucket %d:\n got %v\nwant %v", where, s, b, g, w)
							}
						}
					}
				}
			}
		}
	}
}
