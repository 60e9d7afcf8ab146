package kademlia

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

func testRing(t *testing.T, seed uint64, n int) *ring.Ring {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xca0d))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestXorMetric(t *testing.T) {
	t.Parallel()
	if xorDist(5, 5) != 0 {
		t.Error("distance to self must be zero")
	}
	if xorDist(3, 12) != xorDist(12, 3) {
		t.Error("xor distance must be symmetric")
	}
	// Unidirectionality: for a fixed a and distance d there is exactly
	// one b with dist(a,b) = d.
	if got := ring.Point(uint64(7) ^ uint64(9)); xorDist(7, got^0) == 0 {
		t.Error("sanity")
	}
	if bucketIndex(1) != 0 || bucketIndex(2) != 1 || bucketIndex(3) != 1 || bucketIndex(1<<63) != 63 {
		t.Errorf("bucket octaves wrong: %d %d %d %d", bucketIndex(1), bucketIndex(2), bucketIndex(3), bucketIndex(1<<63))
	}
}

func TestBucketLRU(t *testing.T) {
	t.Parallel()
	const k = 3
	reg := make([]uint32, 1+k+replacementCacheLen)
	regTouch(reg, k, 1)
	regTouch(reg, k, 2)
	regTouch(reg, k, 3)
	// Re-seeing an entry moves it to the most-recently-seen tail.
	regTouch(reg, k, 1)
	if ents := regEntries(reg); ents[0] != 2 || ents[2] != 1 {
		t.Fatalf("LRU order wrong: %v", ents)
	}
	// A new contact on a full bucket lands in the replacement cache.
	regTouch(reg, k, 9)
	if cache := regCache(reg, k); len(regEntries(reg)) != k || len(cache) != 1 || cache[0] != 9 {
		t.Fatalf("full bucket must cache the newcomer: entries=%v cache=%v", regEntries(reg), cache)
	}
	// Evicting the LRU entry and promoting pulls the cached contact in.
	regRemove(reg, k, 2)
	regPromote(reg, k)
	if ents := regEntries(reg); len(ents) != k || ents[k-1] != 9 {
		t.Fatalf("promotion failed: entries=%v cache=%v", ents, regCache(reg, k))
	}
	if cache := regCache(reg, k); len(cache) != 0 {
		t.Fatalf("cache should drain on promote: %v", cache)
	}
}

func TestBucketCacheBounded(t *testing.T) {
	t.Parallel()
	const k = 1
	reg := make([]uint32, 1+k+replacementCacheLen)
	regTouch(reg, k, 1)
	for i := 2; i <= 10; i++ {
		regTouch(reg, k, uint32(i))
	}
	if cache := regCache(reg, k); len(cache) > replacementCacheLen {
		t.Fatalf("cache grew to %d (cap %d)", len(cache), replacementCacheLen)
	}
}

func TestBuildStaticVerifies(t *testing.T) {
	t.Parallel()
	r := testRing(t, 1, 96)
	net, err := BuildStatic(Config{BucketSize: 4}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.VerifyRing(); err != nil {
		t.Fatal(err)
	}
	if err := net.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	// Static fill is complete: every bucket holds min(k, octave
	// population) contacts.
	members := net.Members()
	for _, id := range members {
		nd, err := net.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		var pop [idBits]int
		for _, m := range members {
			if m != id {
				pop[bucketIndex(xorDist(id, m))]++
			}
		}
		for i := 0; i < idBits; i++ {
			want := min(4, pop[i])
			if got := len(nd.BucketEntries(i)); got != want {
				t.Fatalf("node %v bucket %d has %d entries, want %d", id, i, got, want)
			}
		}
	}
}

// TestBuildStaticRejectsOversizedBucket holds k to what a region header
// counts: one more would wrap bucket lengths, and a k of 2^30 would ask
// the region pool for terabytes.
func TestBuildStaticRejectsOversizedBucket(t *testing.T) {
	t.Parallel()
	pts := testRing(t, 2, 8).Points()
	for _, k := range []int{maxBucketSize + 1, 1 << 30} {
		if _, err := BuildStatic(Config{BucketSize: k}, simnet.NewDirect(), pts); err == nil {
			t.Errorf("BuildStatic with k = %d succeeded", k)
		}
	}
}

func TestFindClosestMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	r := testRing(t, 2, 128)
	cfg := Config{BucketSize: 8, Alpha: 3}
	net, err := BuildStatic(cfg, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	members := net.Members()
	for trial := 0; trial < 50; trial++ {
		target := ring.Point(rng.Uint64())
		res, err := net.FindClosest(r.At(0), target)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: the k XOR-closest members.
		want := make([]ring.Point, len(members))
		copy(want, members)
		sortByXor(target, want)
		k := cfg.BucketSize
		for i := 0; i < k && i < len(want); i++ {
			if res.Closest[i] != want[i] {
				t.Fatalf("lookup(%v) result %d = %v, want %v", target, i, res.Closest[i], want[i])
			}
		}
		if res.Rounds < 1 || res.RPCs < res.Rounds {
			t.Fatalf("implausible cost: rounds=%d rpcs=%d", res.Rounds, res.RPCs)
		}
	}
}

func sortByXor(target ring.Point, ids []ring.Point) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			less := xorDist(target, ids[j]) < xorDist(target, ids[j-1])
			if !less {
				break
			}
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func TestResolveOwnerMatchesRing(t *testing.T) {
	t.Parallel()
	r := testRing(t, 3, 200)
	net, err := BuildStatic(Config{BucketSize: 8}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 300; trial++ {
		x := ring.Point(rng.Uint64())
		got, _, err := net.ResolveOwner(r.At(0), x)
		if err != nil {
			t.Fatalf("ResolveOwner(%v): %v", x, err)
		}
		if want := r.At(r.Successor(x)); got != want {
			t.Fatalf("ResolveOwner(%v) = %v, want clockwise successor %v", x, got, want)
		}
	}
	// Identity: resolving a peer's own point returns that peer.
	for i := 0; i < r.Len(); i += 17 {
		got, _, err := net.ResolveOwner(r.At(0), r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != r.At(i) {
			t.Fatalf("ResolveOwner at peer point %v returned %v", r.At(i), got)
		}
	}
}

// TestResolveOwnerChaseIsCheap verifies the block argument from the
// ResolveOwner doc comment empirically: with complete static tables
// the ring-pointer verification costs O(1) RPCs per call, not a walk.
func TestResolveOwnerChaseIsCheap(t *testing.T) {
	t.Parallel()
	r := testRing(t, 4, 512)
	net, err := BuildStatic(Config{BucketSize: 16}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 11))
	const trials = 200
	total := 0
	for trial := 0; trial < trials; trial++ {
		_, stats, err := net.ResolveOwner(r.At(0), ring.Point(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		total += stats.ChaseRPCs
	}
	if avg := float64(total) / trials; avg > 2.5 {
		t.Fatalf("owner chase averaged %.2f RPCs; the two-sided check should need at most 2", avg)
	}
}

func TestJoinIntegratesNode(t *testing.T) {
	t.Parallel()
	r := testRing(t, 5, 48)
	pts := r.Points()
	net, err := BuildStatic(Config{BucketSize: 8}, simnet.NewDirect(), pts[:40])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[40:] {
		if err := net.Join(p, pts[0]); err != nil {
			t.Fatalf("join of %v: %v", p, err)
		}
	}
	if got := net.NumAlive(); got != 48 {
		t.Fatalf("NumAlive = %d, want 48", got)
	}
	// Joins splice eagerly, so the ring is perfect with no maintenance.
	if err := net.VerifyRing(); err != nil {
		t.Fatal(err)
	}
	if err := net.VerifyTables(); err != nil {
		t.Fatal(err)
	}
	// The joiner's self-lookup announced it: other nodes learned it.
	known := 0
	for _, id := range net.Members() {
		nd, err := net.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range nd.Contacts() {
			if c == pts[40] {
				known++
				break
			}
		}
	}
	if known < 3 {
		t.Fatalf("only %d nodes learned the joiner; the self-lookup should announce it", known)
	}
}

func TestJoinDuplicateAndBadBootstrap(t *testing.T) {
	t.Parallel()
	r := testRing(t, 6, 8)
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Join(r.At(0), r.At(1)); err == nil {
		t.Error("joining an existing id should fail")
	}
	if err := net.Join(ring.Point(12345), ring.Point(54321)); err == nil {
		t.Error("joining via an unknown bootstrap should fail")
	}
}

func TestCrashAndMaintenanceRepair(t *testing.T) {
	t.Parallel()
	r := testRing(t, 7, 32)
	// k large enough that survivors know each other and can re-splice.
	net, err := BuildStatic(Config{BucketSize: 16}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 17, 29} {
		if err := net.Crash(r.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	net.Maintain(2, 0)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring not repaired: %v", err)
	}
	if err := net.VerifyTables(); err != nil {
		t.Fatalf("tables not cleaned: %v", err)
	}
	// Lookups and owner resolution still match ground truth on the
	// surviving membership.
	members := net.Members()
	live, err := ring.New(members)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 13))
	for trial := 0; trial < 50; trial++ {
		x := ring.Point(rng.Uint64())
		got, _, err := net.ResolveOwner(members[0], x)
		if err != nil {
			t.Fatal(err)
		}
		if want := live.At(live.Successor(x)); got != want {
			t.Fatalf("post-crash ResolveOwner(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGrowFromSingleNode(t *testing.T) {
	t.Parallel()
	r := testRing(t, 8, 24)
	net := newNetwork(Config{BucketSize: 8}, simnet.NewDirect())
	if _, err := net.Create(r.At(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < r.Len(); i++ {
		if err := net.Join(r.At(i), r.At((i-1)/2)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := net.VerifyRing(); err != nil {
		t.Fatal(err)
	}
	net.Maintain(1, 0)
	if err := net.VerifyTables(); err != nil {
		t.Fatal(err)
	}
}

func TestMeterChargesLookups(t *testing.T) {
	t.Parallel()
	r := testRing(t, 9, 64)
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	before := net.Meter().Snapshot()
	if _, err := net.FindClosest(r.At(0), ring.Point(42)); err != nil {
		t.Fatal(err)
	}
	cost := net.Meter().Snapshot().Sub(before)
	if cost.Calls < 1 || cost.Messages != 2*cost.Calls {
		t.Fatalf("lookup cost %+v: want >=1 call and 2 messages per call", cost)
	}
}

// TestFillStaticTableMatchesReference pins the trie-descent bulk fill
// to the straightforward reference algorithm it replaced: for every
// node, every bucket must hold the same contacts in the same
// (farthest-first) order as a full scan, sort and truncate of the
// membership. Bit-for-bit equality here is what lets BuildStatic's
// parallel shards claim "same routing state as the sequential build".
func TestFillStaticTableMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64, 257, 1024} {
		for _, k := range []int{2, 8, 16} {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(k)))
			r, err := ring.Generate(rng, n)
			if err != nil {
				t.Fatal(err)
			}
			net, err := BuildStatic(Config{BucketSize: k}, simnet.NewDirect(), r.Points())
			if err != nil {
				t.Fatal(err)
			}
			sorted := r.Points()
			for _, id := range net.Members() {
				nd, err := net.Node(id)
				if err != nil {
					t.Fatal(err)
				}
				// Reference: bucket the whole membership by XOR octave,
				// sort each bucket by ascending distance, truncate to k,
				// store farthest first.
				var byBucket [idBits][]ring.Point
				for _, m := range sorted {
					d := xorDist(id, m)
					if d == 0 {
						continue
					}
					byBucket[bucketIndex(d)] = append(byBucket[bucketIndex(d)], m)
				}
				for b := range byBucket {
					want := byBucket[b]
					slices.SortFunc(want, func(a, c ring.Point) int {
						return cmp.Compare(xorDist(id, a), xorDist(id, c))
					})
					if len(want) > k {
						want = want[:k]
					}
					slices.Reverse(want)
					got := nd.BucketEntries(b)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d k=%d node %v bucket %d:\n got %v\nwant %v", n, k, id, b, got, want)
					}
				}
			}
		}
	}
}
