package chord

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// newStatic builds a fully stabilized n-node network on a direct
// transport with uniformly random ids.
func newStatic(t *testing.T, seed uint64, n int) (*Network, *ring.Ring) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	return net, r
}

func TestBuildStaticVerifies(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 16, 257} {
		net, _ := newStatic(t, uint64(n), n)
		if err := net.VerifyRing(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestLookupCorrectness(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 42, 128)
	rng := rand.New(rand.NewPCG(1, 2))
	from := r.At(0)
	for trial := 0; trial < 500; trial++ {
		key := ring.Point(rng.Uint64())
		got, err := net.Lookup(from, key)
		if err != nil {
			t.Fatalf("lookup(%v): %v", key, err)
		}
		want := r.At(r.Successor(key))
		if got != want {
			t.Fatalf("lookup(%v) = %v, want %v", key, got, want)
		}
	}
}

func TestLookupFromEveryNode(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 7, 64)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < r.Len(); i++ {
		key := ring.Point(rng.Uint64())
		got, err := net.Lookup(r.At(i), key)
		if err != nil {
			t.Fatalf("lookup from node %d: %v", i, err)
		}
		if want := r.At(r.Successor(key)); got != want {
			t.Fatalf("lookup from node %d = %v, want %v", i, got, want)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	t.Parallel()
	// Mean lookup cost must scale like O(log n): for a perfect Chord
	// ring it is at most ~log2(n) RPCs.
	for _, n := range []int{64, 256, 1024} {
		net, r := newStatic(t, uint64(n)*3, n)
		rng := rand.New(rand.NewPCG(9, uint64(n)))
		const trials = 200
		before := net.Meter().Snapshot()
		for trial := 0; trial < trials; trial++ {
			from := r.At(rng.IntN(r.Len()))
			if _, err := net.Lookup(from, ring.Point(rng.Uint64())); err != nil {
				t.Fatal(err)
			}
		}
		cost := net.Meter().Snapshot().Sub(before)
		meanHops := float64(cost.Calls) / trials
		logN := math.Log2(float64(n))
		if meanHops > 1.5*logN {
			t.Errorf("n=%d: mean hops %.2f exceeds 1.5*log2(n)=%.2f", n, meanHops, 1.5*logN)
		}
		if meanHops < 0.25*logN {
			t.Errorf("n=%d: mean hops %.2f suspiciously low (< 0.25*log2 n)", n, meanHops)
		}
	}
}

func TestLookupExactKey(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 11, 32)
	// Looking up a key equal to a node id must return that node.
	for i := 0; i < r.Len(); i++ {
		got, err := net.Lookup(r.At(0), r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != r.At(i) {
			t.Errorf("lookup of own id %v = %v", r.At(i), got)
		}
	}
}

func TestJoinGrowsRing(t *testing.T) {
	t.Parallel()
	tr := simnet.NewDirect()
	net := NewNetwork(Config{}, tr)
	rng := rand.New(rand.NewPCG(5, 6))
	first := ring.Point(rng.Uint64())
	if _, err := net.Create(first); err != nil {
		t.Fatal(err)
	}
	ids := []ring.Point{first}
	for i := 1; i < 48; i++ {
		id := ring.Point(rng.Uint64())
		via := ids[rng.IntN(len(ids))]
		if err := net.Join(id, via); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		ids = append(ids, id)
		// A few rounds after each join keep the ring near-perfect, which
		// mirrors Chord's steady-state assumption.
		net.Maintain(2, 4)
	}
	net.Maintain(8, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring not converged after joins: %v", err)
	}
	if got := net.NumAlive(); got != 48 {
		t.Errorf("NumAlive = %d, want 48", got)
	}
}

func TestJoinDuplicateFails(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 13, 8)
	if err := net.Join(r.At(3), r.At(0)); !errors.Is(err, ErrNodeExists) {
		t.Errorf("err = %v, want ErrNodeExists", err)
	}
}

func TestCrashAndRepair(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 21, 64)
	rng := rand.New(rand.NewPCG(8, 8))
	// Crash 16 random nodes (25%).
	perm := rng.Perm(r.Len())
	crashed := make(map[ring.Point]bool, 16)
	for _, idx := range perm[:16] {
		id := r.At(idx)
		if err := net.Crash(id); err != nil {
			t.Fatal(err)
		}
		crashed[id] = true
	}
	net.Maintain(12, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring not repaired after crashes: %v", err)
	}
	// Lookups from survivors resolve to live nodes only.
	members := net.Members()
	live := make(map[ring.Point]bool, len(members))
	for _, m := range members {
		live[m] = true
	}
	for trial := 0; trial < 200; trial++ {
		from := members[rng.IntN(len(members))]
		got, err := net.Lookup(from, ring.Point(rng.Uint64()))
		if err != nil {
			t.Fatalf("post-repair lookup: %v", err)
		}
		if !live[got] {
			t.Fatalf("lookup resolved to crashed node %v", got)
		}
	}
}

func TestConsecutiveCrashWithinSuccessorListRepairs(t *testing.T) {
	t.Parallel()
	// Chord's stated fault tolerance: the ring survives up to
	// SuccListLen-1 consecutive failures between stabilizations. Crash
	// exactly that many adjacent nodes and verify full repair.
	cfg := Config{SuccListLen: 8}
	rng := rand.New(rand.NewPCG(61, 62))
	r, err := ring.Generate(rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(cfg, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 10+7; i++ { // 7 = SuccListLen-1 consecutive
		if err := net.Crash(r.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	net.Maintain(12, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring not repaired after %d consecutive crashes: %v", 7, err)
	}
	// Lookups across the gap resolve to live nodes.
	for trial := 0; trial < 100; trial++ {
		key := ring.Point(rng.Uint64())
		got, err := net.Lookup(r.At(0), key)
		if err != nil {
			t.Fatalf("lookup after gap repair: %v", err)
		}
		if _, err := net.Node(got); err != nil {
			t.Fatalf("lookup resolved to crashed node %v", got)
		}
	}
}

func TestCrashUnknownNode(t *testing.T) {
	t.Parallel()
	net, _ := newStatic(t, 31, 4)
	if err := net.Crash(ring.Point(1)); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestSuccessorRPC(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 17, 16)
	for i := 0; i < r.Len(); i++ {
		succ, err := net.Successor(r.At(0), r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := r.At(r.NextIndex(i)); succ != want {
			t.Errorf("Successor(%d) = %v, want %v", i, succ, want)
		}
	}
}

func TestSuccessorOfCrashedNodeFails(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 19, 8)
	if err := net.Crash(r.At(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Successor(r.At(0), r.At(3)); err == nil {
		t.Error("successor RPC to crashed node should fail")
	}
}

func TestNeighborsDistinct(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 23, 128)
	nd, err := net.Node(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	nbrs := nd.Neighbors()
	if len(nbrs) == 0 {
		t.Fatal("no neighbors")
	}
	seen := make(map[ring.Point]bool, len(nbrs))
	for _, p := range nbrs {
		if p == nd.ID() {
			t.Error("node lists itself as neighbor")
		}
		if seen[p] {
			t.Errorf("duplicate neighbor %v", p)
		}
		seen[p] = true
	}
	// A 128-node ring yields about log2(128) = 7 distinct fingers.
	if len(nbrs) < 5 {
		t.Errorf("only %d distinct neighbors, expected >= 5", len(nbrs))
	}
}

func TestVerifyFingers(t *testing.T) {
	t.Parallel()
	// Static construction computes perfect fingers.
	net, r := newStatic(t, 53, 64)
	if err := net.VerifyFingers(); err != nil {
		t.Fatalf("static fingers imperfect: %v", err)
	}
	// After crashes, enough maintenance rounds re-converge all 64
	// fingers per node (rounds * fingersPerRound >= 64).
	rng := rand.New(rand.NewPCG(54, 55))
	perm := rng.Perm(r.Len())
	for _, idx := range perm[:8] {
		if err := net.Crash(r.At(idx)); err != nil {
			t.Fatal(err)
		}
	}
	net.Maintain(8, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring not repaired: %v", err)
	}
	if err := net.VerifyFingers(); err != nil {
		t.Fatalf("fingers not reconverged: %v", err)
	}
	// Detection: corrupt one finger.
	nd, err := net.Node(net.Members()[0])
	if err != nil {
		t.Fatal(err)
	}
	nd.setFinger(63, nd.ID())
	if err := net.VerifyFingers(); err == nil {
		t.Error("VerifyFingers should detect a corrupted finger")
	}
}

func TestVerifyRingDetectsDamage(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 29, 8)
	nd, err := net.Node(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	nd.setSuccessors(r.At(0), nil) // point at self: broken
	if err := net.VerifyRing(); err == nil {
		t.Error("VerifyRing should detect a broken successor")
	}
}

func TestEmptyNetworkVerify(t *testing.T) {
	t.Parallel()
	net := NewNetwork(Config{}, simnet.NewDirect())
	if err := net.VerifyRing(); !errors.Is(err, ErrEmptyNetwork) {
		t.Errorf("err = %v, want ErrEmptyNetwork", err)
	}
}

func TestBuildStaticRejectsDuplicates(t *testing.T) {
	t.Parallel()
	_, err := BuildStatic(Config{}, simnet.NewDirect(), []ring.Point{1, 1})
	if err == nil {
		t.Error("duplicate points should fail")
	}
}

func TestAdapterHAndNext(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 37, 64)
	d, err := net.AsDHT(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 7))
	for trial := 0; trial < 200; trial++ {
		x := ring.Point(rng.Uint64())
		p, err := d.H(x)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx := r.Successor(x)
		if p.Point != r.At(wantIdx) || p.Owner != wantIdx {
			t.Fatalf("H(%v) = %+v, want point %v owner %d", x, p, r.At(wantIdx), wantIdx)
		}
		nxt, err := d.Next(p)
		if err != nil {
			t.Fatal(err)
		}
		if nxt.Owner != r.NextIndex(wantIdx) {
			t.Fatalf("Next owner = %d, want %d", nxt.Owner, r.NextIndex(wantIdx))
		}
	}
	if d.Size() != 64 || d.Owners() != 64 {
		t.Errorf("Size/Owners = %d/%d, want 64/64", d.Size(), d.Owners())
	}
	if self := d.Self(); self.Owner != 0 || self.Point != r.At(0) {
		t.Errorf("Self = %+v", self)
	}
}

func TestAdapterNextCostsOneRPC(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 41, 32)
	d, err := net.AsDHT(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.H(0)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Meter().Snapshot()
	if _, err := d.Next(p); err != nil {
		t.Fatal(err)
	}
	cost := d.Meter().Snapshot().Sub(before)
	if cost.Calls != 1 || cost.Messages != 2 {
		t.Errorf("Next cost = %+v, want exactly 1 call / 2 messages", cost)
	}
}

func TestAdapterRefreshOwnersAfterChurn(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 43, 16)
	d, err := net.AsDHT(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Crash(r.At(8)); err != nil {
		t.Fatal(err)
	}
	net.Maintain(6, 8)
	d.RefreshOwners()
	if d.Size() != 15 {
		t.Errorf("Size after crash = %d, want 15", d.Size())
	}
}

func TestAdapterUnknownCaller(t *testing.T) {
	t.Parallel()
	net, _ := newStatic(t, 47, 4)
	if _, err := net.AsDHT(ring.Point(12345)); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestSuccessorOnlyRouting(t *testing.T) {
	t.Parallel()
	// With fingers disabled, lookups resolve correctly via successor
	// lists alone, at Theta(n/r) hops.
	rng := rand.New(rand.NewPCG(81, 82))
	r, err := ring.Generate(rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{SuccListLen: 8, MaxLookupHops: 400, DisableFingers: true}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	before := net.Meter().Snapshot()
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		key := ring.Point(rng.Uint64())
		got, err := net.Lookup(r.At(0), key)
		if err != nil {
			t.Fatalf("fingerless lookup: %v", err)
		}
		if want := r.At(r.Successor(key)); got != want {
			t.Fatalf("fingerless lookup = %v, want %v", got, want)
		}
	}
	meanHops := float64(net.Meter().Snapshot().Sub(before).Calls) / trials
	// Expect about n/(2r) = 6 hops on average, far above log2(96) ~ 6.6?
	// No: with r=8 the ring advances up to 8 peers per hop, so ~96/16 = 6
	// mean hops; assert the linear-scaling band generously.
	if meanHops < 2 || meanHops > 24 {
		t.Errorf("fingerless mean hops = %v, outside Theta(n/r) band", meanHops)
	}
	// Maintenance with fingers disabled must not re-enable them.
	net.Maintain(2, 4)
	nd, err := net.Node(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nd.Finger(63); ok {
		t.Error("FixFinger populated a finger on a finger-disabled network")
	}
}

func TestLookupSurvivesMessageDrops(t *testing.T) {
	t.Parallel()
	// With a lossy network (5% drops) the candidate-fallback routing
	// keeps most lookups working, and those that fail return an error
	// rather than a wrong answer.
	rng := rand.New(rand.NewPCG(71, 72))
	r, err := ring.Generate(rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	faults := simnet.NewFaults(rand.New(rand.NewPCG(73, 74)))
	faults.SetDropRate(0.05)
	net, err := BuildStatic(Config{}, simnet.NewDirect(simnet.WithFaults(faults)), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	failed := 0
	for trial := 0; trial < trials; trial++ {
		key := ring.Point(rng.Uint64())
		got, err := net.Lookup(r.At(trial%r.Len()), key)
		if err != nil {
			failed++
			continue
		}
		if want := r.At(r.Successor(key)); got != want {
			t.Fatalf("lossy lookup returned wrong owner: %v, want %v", got, want)
		}
	}
	if failed > trials/4 {
		t.Errorf("%d/%d lookups failed at 5%% drop rate; fallback too weak", failed, trials)
	}
}

func TestConcurrentLookups(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(51, 52))
	r, err := ring.Generate(rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed uint64) {
			wrng := rand.New(rand.NewPCG(seed, seed))
			for trial := 0; trial < 100; trial++ {
				key := ring.Point(wrng.Uint64())
				got, err := net.Lookup(r.At(int(seed)%r.Len()), key)
				if err != nil {
					done <- err
					return
				}
				if want := r.At(r.Successor(key)); got != want {
					done <- errors.New("wrong lookup result under concurrency")
					return
				}
			}
			done <- nil
		}(uint64(w))
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
