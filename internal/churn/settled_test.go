package churn

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
)

// TestSettledChurnMatchesAnalyze holds both overlays to Theorem 6 on
// the ring a churn history leaves behind: 3n synchronous events at the
// default maintenance rounds, then single rounds until VerifyRing is
// nil, then the piece walk (dhttest.SettledPieces) over the survivors.
// A history that has not settled within maxSettle rounds fails.
func TestSettledChurnMatchesAnalyze(t *testing.T) {
	t.Parallel()
	const maxSettle = 50
	for name, build := range map[string]func(t *testing.T, seed uint64, n int) Overlay{
		"chord":    func(t *testing.T, seed uint64, n int) Overlay { net, _ := newNet(t, seed, n); return net },
		"kademlia": func(t *testing.T, seed uint64, n int) Overlay { net, _ := newKadNet(t, seed, n); return net },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{4, 9, 24} {
				for seed := uint64(1); seed <= 20; seed++ {
					where := fmt.Sprintf("%s seed %d, n=%d, %d events", name, seed, n, 3*n)
					net := build(t, seed, n)
					d, err := NewDriver(net, rand.New(rand.NewPCG(seed, seed+5)), Config{Events: 3 * n})
					if err != nil {
						t.Fatal(err)
					}
					if err := d.Run(nil); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					for rounds := 0; net.VerifyRing() != nil; rounds++ {
						if rounds == maxSettle {
							t.Fatalf("%s: not settled after %d rounds: %v", where, rounds, net.VerifyRing())
						}
						net.Maintain(1, 8)
					}
					dhttest.SettledPieces(t, where, net)
				}
			}
		})
	}
}
