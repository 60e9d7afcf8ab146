package randompeer

import (
	"math/rand/v2"
	"testing"
)

// TestAdversaryFacade drives an installed attack through the facade's
// read-back and disarm methods: Kind and NumNodes name the attack and
// its size, Contains marks exactly NumNodes peers and never the caller,
// Victim is peer n/2 for an eclipse and an error otherwise, and Remove
// restores honest routing — a route-bias attack turns some of the
// caller's lookups to subverted peers, and after Remove every lookup
// lands on the true owner again.
func TestAdversaryFacade(t *testing.T) {
	t.Parallel()
	const n = 128
	tb, err := New(WithPeers(n), WithBackend(ChordBackend), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]Peer, n)
	for i := range peers {
		if peers[i], err = tb.Peer(i); err != nil {
			t.Fatal(err)
		}
	}
	// subverted counts the peers the attack marks, checking the caller.
	subverted := func(a *Adversary) int {
		t.Helper()
		if a.Contains(peers[0]) {
			t.Errorf("%s: the caller, peer 0, is subverted", a.Kind())
		}
		count := 0
		for _, p := range peers {
			if a.Contains(p) {
				count++
			}
		}
		return count
	}

	eclipse, err := tb.InstallAdversary("eclipse:0.25", 7)
	if err != nil {
		t.Fatal(err)
	}
	if eclipse.Kind() != "eclipse" {
		t.Errorf("Kind() = %q, want eclipse", eclipse.Kind())
	}
	if got := subverted(eclipse); got != eclipse.NumNodes() || got < n/8 || got > n/2 {
		t.Errorf("eclipse:0.25 of %d peers: Contains marks %d, NumNodes %d", n, got, eclipse.NumNodes())
	}
	if v, err := eclipse.Victim(); err != nil || v != peers[n/2] {
		t.Errorf("Victim() = %+v, %v; want peer n/2 %+v", v, err, peers[n/2])
	}
	eclipse.Remove()

	bias, err := tb.InstallAdversary("route-bias:0.3", 8)
	if err != nil {
		t.Fatal(err)
	}
	if bias.Kind() != "route-bias" {
		t.Errorf("Kind() = %q, want route-bias", bias.Kind())
	}
	if got := subverted(bias); got != bias.NumNodes() || got == 0 {
		t.Errorf("route-bias:0.3: Contains marks %d, NumNodes %d", got, bias.NumNodes())
	}
	if _, err := bias.Victim(); err == nil {
		t.Error("a route-bias attack reported a victim")
	}
	// misrouted counts the caller's lookups that miss the true owner.
	misrouted := func() int {
		rng := rand.New(rand.NewPCG(9, 9))
		wrong := 0
		for i := 0; i < 300; i++ {
			x := Point(rng.Uint64())
			p, err := tb.DHT().H(x)
			if err != nil {
				t.Fatal(err)
			}
			if p.Point != tb.r.At(tb.r.Successor(x)) {
				wrong++
			}
		}
		return wrong
	}
	if wrong := misrouted(); wrong == 0 {
		t.Error("route-bias:0.3 steered none of 300 lookups")
	}
	bias.Remove()
	if wrong := misrouted(); wrong != 0 {
		t.Errorf("after Remove, %d of 300 lookups still miss the true owner", wrong)
	}
}
