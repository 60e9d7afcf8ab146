package kademlia

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// h converges on the XOR-closest contact (lookup width 1), every other
// lookup on the k closest. The owner is the invariant of that choice:
// the ring-pointer verification decides it, the lookup only seeds m and
// c. The tests below hold width 1 against width k target by target.

// checkOwnersAcrossWidths resolves every target from "from" at width 1
// and at width k and requires the clockwise owner from both; with
// exact set, also the same ChaseRPCs call by call and no more lookup
// RPCs at width 1 (static tables: the XOR-closest node's reply carries
// x's block, so m and c do not depend on the width).
func checkOwnersAcrossWidths(t *testing.T, net *Network, from ring.Point, targets []ring.Point, exact bool, stage string) {
	t.Helper()
	live, err := ring.New(net.Members())
	if err != nil {
		t.Fatal(err)
	}
	k := net.cfg.BucketSize
	var rpcs1, rpcsK, chase1, chaseK, chaseDiffers int
	for _, x := range targets {
		want := live.At(live.Successor(x))
		narrow, s1, err := net.resolveOwner(from, x, 1, 0, false)
		if err != nil {
			t.Fatalf("%s: width 1 toward %v: %v", stage, x, err)
		}
		wide, sk, err := net.resolveOwner(from, x, k, 0, false)
		if err != nil {
			t.Fatalf("%s: width %d toward %v: %v", stage, k, x, err)
		}
		if narrow != want || wide != want {
			t.Fatalf("%s: owner of %v: width 1 says %v, width %d says %v, the ring says %v", stage, x, narrow, k, wide, want)
		}
		if exact && s1.ChaseRPCs != sk.ChaseRPCs {
			t.Fatalf("%s: target %v: %d chase RPCs at width 1, %d at width %d", stage, x, s1.ChaseRPCs, sk.ChaseRPCs, k)
		}
		if exact && s1.LookupRPCs > sk.LookupRPCs {
			t.Fatalf("%s: target %v: %d lookup RPCs at width 1, %d at width %d", stage, x, s1.LookupRPCs, sk.LookupRPCs, k)
		}
		rpcs1 += s1.LookupRPCs
		rpcsK += sk.LookupRPCs
		chase1 += s1.ChaseRPCs
		chaseK += sk.ChaseRPCs
		if s1.ChaseRPCs != sk.ChaseRPCs {
			chaseDiffers++
		}
	}
	per := func(total int) float64 { return float64(total) / float64(len(targets)) }
	t.Logf("%s: %d targets, width 1: %.2f lookup + %.3f chase RPCs, width %d: %.2f + %.3f, chase differs on %d",
		stage, len(targets), per(rpcs1), per(chase1), k, per(rpcsK), per(chaseK), chaseDiffers)
}

// widthTargets is count seeded random points plus every 17th peer's own
// point (the c == x exit).
func widthTargets(rng *rand.Rand, r *ring.Ring, count int) []ring.Point {
	targets := make([]ring.Point, 0, count+r.Len()/17+1)
	for i := 0; i < count; i++ {
		targets = append(targets, ring.Point(rng.Uint64()))
	}
	for i := 0; i < r.Len(); i += 17 {
		targets = append(targets, r.At(i))
	}
	return targets
}

func TestResolveOwnerWidthInvariant(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n     int
		cfg   Config
		exact bool
	}{
		{16384, Config{}, true},
		{200, Config{BucketSize: 2, Alpha: 1}, false},
	} {
		r := testRing(t, 80+uint64(tc.n), tc.n)
		net, err := BuildStatic(tc.cfg, simnet.NewDirect(), r.Points())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(81, uint64(tc.n)))
		stage := fmt.Sprintf("n=%d k=%d static", tc.n, net.cfg.BucketSize)
		checkOwnersAcrossWidths(t, net, r.At(0), widthTargets(rng, r, 5000), tc.exact, stage)
	}
}

// TestResolveOwnerWidthInvariantAfterChurn: 40 join/crash events and a
// few maintenance rounds leave repaired ring pointers over tables that
// are no longer the static fill; the owner must still not depend on the
// width.
func TestResolveOwnerWidthInvariantAfterChurn(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{{}, {BucketSize: 2, Alpha: 1}} {
		r := testRing(t, 90+uint64(cfg.BucketSize), 220)
		pts := r.Points()
		net, err := BuildStatic(cfg, simnet.NewDirect(), pts[:200])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(91, uint64(cfg.BucketSize)))
		from := pts[0]
		for ev := 0; ev < 40; ev++ {
			members := net.Members()
			if ev%2 == 0 {
				// With no maintenance between events a join may run into a
				// crashed ring neighbour and withdraw; that is damage too.
				if err := net.Join(pts[200+ev/2], members[rng.IntN(len(members))]); err != nil {
					t.Logf("k=%d event %d: %v", net.cfg.BucketSize, ev, err)
				}
			} else if victim := members[rng.IntN(len(members))]; victim != from {
				if err := net.Crash(victim); err != nil {
					t.Fatal(err)
				}
			}
		}
		for round := 0; round < 16 && net.VerifyRing() != nil; round++ {
			net.Maintain(1, 0)
		}
		if err := net.VerifyRing(); err != nil {
			t.Fatalf("k=%d: ring not repaired: %v", net.cfg.BucketSize, err)
		}
		stage := fmt.Sprintf("k=%d after churn", net.cfg.BucketSize)
		checkOwnersAcrossWidths(t, net, from, widthTargets(rng, r, 5000), false, stage)
	}
}

// TestResolveOwnerSurvivesDeadVerificationContact crashes the contact
// the verification would ask first — the m of a dry-run lookup toward x
// — and resolves x again with no maintenance in between. Where the
// dry run's c is the owner, h must fall through m to the next candidate
// and return that owner. Where it is not, m's successor pointer was the
// only route to the owner and the pointer chase dead-ends at m: h may
// fail, but must not name a wrong owner. The ring is repaired between
// trials, so each one meets exactly one dead node.
func TestResolveOwnerSurvivesDeadVerificationContact(t *testing.T) {
	t.Parallel()
	r := testRing(t, 95, 256)
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	from := r.At(0)
	rng := rand.New(rand.NewPCG(96, 96))
	unqueried, deadEnds := 0, 0
	for trial := 0; trial < 40; trial++ {
		x := ring.Point(rng.Uint64())
		ls := new(lookupScratch)
		if _, _, err := net.lookup(ls, from, x, 1); err != nil {
			t.Fatal(err)
		}
		m, c, mQueried := from, from, true
		for _, e := range ls.short {
			if ring.Distance(e.id, x) < ring.Distance(m, x) {
				m, mQueried = e.id, e.queried
			}
			if ring.Distance(x, e.id) < ring.Distance(x, c) {
				c = e.id
			}
		}
		if m == from || m == c {
			continue
		}
		if err := net.Crash(m); err != nil {
			t.Fatal(err)
		}
		live, err := ring.New(net.Members())
		if err != nil {
			t.Fatal(err)
		}
		want := live.At(live.Successor(x))
		got, _, err := net.ResolveOwner(from, x)
		switch {
		case err != nil && c == want:
			t.Fatalf("trial %d: ResolveOwner(%v) with m = %v crashed: %v", trial, x, m, err)
		case err != nil:
			deadEnds++
		case got != want:
			t.Fatalf("trial %d: ResolveOwner(%v) = %v with m = %v crashed, want %v", trial, x, got, m, want)
		case !mQueried:
			unqueried++
		}
		for round := 0; round < 8 && net.VerifyRing() != nil; round++ {
			net.Maintain(1, 0)
		}
		if err := net.VerifyRing(); err != nil {
			t.Fatalf("trial %d: ring not repaired: %v", trial, err)
		}
	}
	t.Logf("%d resolutions fell through an unqueried dead m, %d dead-ended in the pointer chase", unqueried, deadEnds)
	if unqueried == 0 {
		t.Fatal("no trial crashed a contact the lookup had not queried: the verification path was not exercised")
	}
}
