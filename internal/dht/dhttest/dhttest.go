// Package dhttest is a conformance suite for dht.DHT implementations.
// The paper's algorithm is written against only the (h, next) model, so
// any backend that passes this suite — the oracle, the virtual-node
// oracle, the real Chord network — supports the sampler unmodified.
// That is the paper's "applicable for a wide range of DHTs" claim made
// executable.
package dhttest

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Factory builds the DHT under test over the given peer points. The
// returned DHT must place exactly those points on its circle.
type Factory func(points []ring.Point) (dht.DHT, error)

// Run executes the conformance suite against the factory.
func Run(t *testing.T, name string, mk Factory) {
	t.Helper()
	t.Run(name+"/HMatchesClockwiseSuccessor", func(t *testing.T) { checkH(t, mk) })
	t.Run(name+"/HAtPeerPointIsIdentity", func(t *testing.T) { checkHIdentity(t, mk) })
	t.Run(name+"/NextCyclesRing", func(t *testing.T) { checkNextCycle(t, mk) })
	t.Run(name+"/OwnersInRange", func(t *testing.T) { checkOwners(t, mk) })
	t.Run(name+"/MeterMonotone", func(t *testing.T) { checkMeter(t, mk) })
	t.Run(name+"/SizeConsistent", func(t *testing.T) { checkSize(t, mk) })
	t.Run(name+"/NextCostO1", func(t *testing.T) { checkNextCostO1(t, mk) })
	t.Run(name+"/HChargesLookupCost", func(t *testing.T) { checkHCost(t, mk) })
	t.Run(name+"/OwnerStability", func(t *testing.T) { checkOwnerStability(t, mk) })
	t.Run(name+"/NextUnknownPeer", func(t *testing.T) { checkNextUnknownPeer(t, mk) })
}

// build creates a DHT over n random points and returns it with the
// ground-truth ring.
func build(t *testing.T, mk Factory, seed uint64, n int) (dht.DHT, *ring.Ring) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xd47ec0))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mk(r.Points())
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	return d, r
}

func checkH(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1001, 64)
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 300; trial++ {
		x := ring.Point(rng.Uint64())
		p, err := d.H(x)
		if err != nil {
			t.Fatalf("H(%v): %v", x, err)
		}
		want := r.At(r.Successor(x))
		if p.Point != want {
			t.Fatalf("H(%v) = %v, clockwise successor is %v", x, p.Point, want)
		}
	}
}

func checkHIdentity(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1003, 32)
	for i := 0; i < r.Len(); i++ {
		p, err := d.H(r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if p.Point != r.At(i) {
			t.Fatalf("H at peer point %v returned %v", r.At(i), p.Point)
		}
	}
}

func checkNextCycle(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1005, 48)
	start, err := d.H(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	cur := start
	visited := make(map[ring.Point]bool, r.Len())
	for step := 0; step < r.Len(); step++ {
		if visited[cur.Point] {
			t.Fatalf("revisited %v before completing the cycle", cur.Point)
		}
		visited[cur.Point] = true
		// Each next must be the immediate clockwise neighbor.
		idx := r.IndexOf(cur.Point)
		if idx < 0 {
			t.Fatalf("next returned non-member point %v", cur.Point)
		}
		next, err := d.Next(cur)
		if err != nil {
			t.Fatalf("Next(%v): %v", cur.Point, err)
		}
		if want := r.At(r.NextIndex(idx)); next.Point != want {
			t.Fatalf("Next(%v) = %v, want %v", cur.Point, next.Point, want)
		}
		cur = next
	}
	if cur.Point != start.Point {
		t.Fatalf("walk of %d steps did not return to start", r.Len())
	}
	if len(visited) != r.Len() {
		t.Fatalf("visited %d of %d peers", len(visited), r.Len())
	}
}

// checkNextUnknownPeer pins the error contract of Next: a point that
// is no member's fails with dht.ErrUnknownPeer, whatever the backend's
// transport calls the missing node.
func checkNextUnknownPeer(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1019, 24)
	x := ring.Point(12345)
	for r.IndexOf(x) >= 0 {
		x++
	}
	if _, err := d.Next(dht.Peer{Point: x, Owner: -1}); !errors.Is(err, dht.ErrUnknownPeer) {
		t.Fatalf("Next(non-member %d) error = %v, want dht.ErrUnknownPeer", uint64(x), err)
	}
}

func checkOwners(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1007, 40)
	rng := rand.New(rand.NewPCG(9, 9))
	owners := d.Owners()
	if owners < 1 {
		t.Fatalf("Owners = %d", owners)
	}
	for trial := 0; trial < 100; trial++ {
		p, err := d.H(ring.Point(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		if p.Owner < 0 || p.Owner >= owners {
			t.Fatalf("owner %d outside [0, %d)", p.Owner, owners)
		}
	}
	_ = r
}

func checkMeter(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1009, 32)
	before := d.Meter().Snapshot()
	p, err := d.H(r.At(5))
	if err != nil {
		t.Fatal(err)
	}
	afterH := d.Meter().Snapshot()
	if afterH.Calls <= before.Calls || afterH.Messages <= before.Messages {
		t.Fatal("H charged nothing")
	}
	if _, err := d.Next(p); err != nil {
		t.Fatal(err)
	}
	afterNext := d.Meter().Snapshot()
	if afterNext.Calls <= afterH.Calls {
		t.Fatal("Next charged nothing")
	}
	// A lookup must cost at least as much as one successor chase.
	hCost := afterH.Calls - before.Calls
	nextCost := afterNext.Calls - afterH.Calls
	if hCost < nextCost {
		t.Fatalf("H cost %d below Next cost %d", hCost, nextCost)
	}
}

// measureNextCost walks the ring with Next for the given number of
// steps and returns the total metered cost of those steps.
func measureNextCost(t *testing.T, d dht.DHT, r *ring.Ring, steps int) (calls, messages int64) {
	t.Helper()
	cur, err := d.H(r.At(0))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Meter().Snapshot()
	for i := 0; i < steps; i++ {
		cur, err = d.Next(cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	cost := d.Meter().Snapshot().Sub(before)
	return cost.Calls, cost.Messages
}

// checkNextCostO1 is the paper's next(p) cost model made executable:
// one pointer chase must cost O(1) RPCs — a small constant that does
// not grow with the network. The per-step cost is measured at two
// sizes an order of magnitude apart and must be identical and tiny,
// while h pays the (size-dependent) routed-lookup cost.
func checkNextCostO1(t *testing.T, mk Factory) {
	const steps = 16
	perStep := func(n int) (float64, float64) {
		d, r := build(t, mk, 1013, n)
		calls, messages := measureNextCost(t, d, r, steps)
		return float64(calls) / steps, float64(messages) / steps
	}
	smallCalls, smallMsgs := perStep(24)
	bigCalls, bigMsgs := perStep(240)
	if smallCalls != bigCalls || smallMsgs != bigMsgs {
		t.Fatalf("Next cost grew with n: %v calls/%v msgs at n=24, %v calls/%v msgs at n=240",
			smallCalls, smallMsgs, bigCalls, bigMsgs)
	}
	if smallCalls < 1 || smallCalls > 2 {
		t.Fatalf("Next costs %v calls per step; one pointer chase should cost 1 (at most 2) RPCs", smallCalls)
	}
	if smallMsgs < smallCalls {
		t.Fatalf("Next charged %v messages for %v calls", smallMsgs, smallCalls)
	}
}

// checkHCost verifies that H charges genuine lookup costs on the
// meter: every call pays at least one RPC (two messages), and the mean
// lookup strictly exceeds the mean pointer chase — h is a routed
// lookup, not a free oracle read.
func checkHCost(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1015, 128)
	rng := rand.New(rand.NewPCG(15, 15))
	const trials = 40
	var hCalls, hMessages int64
	for i := 0; i < trials; i++ {
		before := d.Meter().Snapshot()
		if _, err := d.H(ring.Point(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
		cost := d.Meter().Snapshot().Sub(before)
		if cost.Calls < 1 || cost.Messages < 2 {
			t.Fatalf("H charged %+v; every lookup must pay at least one RPC", cost)
		}
		hCalls += cost.Calls
		hMessages += cost.Messages
	}
	nextCalls, _ := measureNextCost(t, d, r, 16)
	meanH := float64(hCalls) / trials
	meanNext := float64(nextCalls) / 16
	if meanH <= meanNext {
		t.Fatalf("mean H cost %.2f calls does not exceed mean Next cost %.2f", meanH, meanNext)
	}
}

// checkOwnerStability verifies that Owner is a stable identity:
// repeated lookups of the same point resolve to the identical peer,
// peer points map to distinct owners, and Next reports the same owner
// for a peer as H does — the tally bookkeeping samplers rely on.
func checkOwnerStability(t *testing.T, mk Factory) {
	d, r := build(t, mk, 1017, 40)
	ownerOf := make(map[int]ring.Point, r.Len())
	peers := make([]dht.Peer, r.Len())
	for i := 0; i < r.Len(); i++ {
		p1, err := d.H(r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := d.H(r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("H(%v) unstable: %+v then %+v", r.At(i), p1, p2)
		}
		if prev, dup := ownerOf[p1.Owner]; dup {
			t.Fatalf("owner %d claimed by both %v and %v", p1.Owner, prev, p1.Point)
		}
		ownerOf[p1.Owner] = p1.Point
		peers[i] = p1
	}
	for i, p := range peers {
		next, err := d.Next(p)
		if err != nil {
			t.Fatal(err)
		}
		want := peers[r.NextIndex(i)]
		if next != want {
			t.Fatalf("Next(%v) = %+v; H resolved the successor as %+v", p.Point, next, want)
		}
	}
}

func checkSize(t *testing.T, mk Factory) {
	d, _ := build(t, mk, 1011, 24)
	if d.Size() != 24 {
		t.Fatalf("Size = %d, want 24", d.Size())
	}
	if d.Owners() > d.Size() {
		t.Fatalf("Owners %d exceeds Size %d", d.Owners(), d.Size())
	}
}
