package dht

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// TestOracleLaneMatchesSharedPath drives one call script through the
// oracle and through a lane of it: every answer must be the same peer,
// the lane must leave the meter alone until Flush, and Flush must then
// charge exactly what the shared path charged for the same script.
func TestOracleLaneMatchesSharedPath(t *testing.T) {
	t.Parallel()
	plain, err := GenerateOracle(rand.New(rand.NewPCG(5, 5)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	virtual, err := NewVirtualOracle(rand.New(rand.NewPCG(6, 6)), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Oracle{"plain": plain, "virtual": virtual} {
		lane, ok := o.Lane()
		if !ok {
			t.Fatalf("%s: oracle offers no lane", name)
		}
		// script plays 200 lookups, each followed by a three-step walk,
		// and returns the peers seen.
		script := func(d DHT) []Peer {
			rng := rand.New(rand.NewPCG(7, 7))
			var seen []Peer
			for i := 0; i < 200; i++ {
				p, err := d.H(ring.Point(rng.Uint64()))
				if err != nil {
					t.Fatal(err)
				}
				seen = append(seen, p)
				for j := 0; j < 3; j++ {
					if p, err = d.Next(p); err != nil {
						t.Fatal(err)
					}
					seen = append(seen, p)
				}
			}
			return seen
		}
		start := o.Meter().Snapshot()
		want := script(o)
		shared := o.Meter().Snapshot().Sub(start)

		start = o.Meter().Snapshot()
		got := script(lane)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: lane answer %d = %+v, oracle's %+v", name, i, got[i], want[i])
			}
		}
		if _, err := lane.Next(Peer{Point: 12345, Owner: 1}); !errors.Is(err, ErrUnknownPeer) {
			t.Errorf("%s: lane.Next(unknown) err = %v, want ErrUnknownPeer", name, err)
		}
		if d := o.Meter().Snapshot().Sub(start); d != (simnet.Cost{}) {
			t.Errorf("%s: unflushed lane moved the meter by %+v", name, d)
		}
		lane.Flush()
		if d := o.Meter().Snapshot().Sub(start); d != shared {
			t.Errorf("%s: flushed lane charged %+v, shared path %+v", name, d, shared)
		}
		lane.Flush()
		if d := o.Meter().Snapshot().Sub(start); d != shared {
			t.Errorf("%s: a second Flush charged again: %+v, want %+v", name, d, shared)
		}
		if lane.Size() != o.Size() || lane.Owners() != o.Owners() || lane.Meter() != o.Meter() {
			t.Errorf("%s: lane reports size %d owners %d, oracle %d and %d", name, lane.Size(), lane.Owners(), o.Size(), o.Owners())
		}
	}
}

// TestOracleLaneWithheldUnderSimulatedLatency: with a latency model
// armed every hop advances the one clock and draws from the one stream,
// in call order, so the oracle must offer no lane — a lane would skip
// both.
func TestOracleLaneWithheldUnderSimulatedLatency(t *testing.T) {
	t.Parallel()
	o, err := GenerateOracle(rand.New(rand.NewPCG(8, 8)), 256)
	if err != nil {
		t.Fatal(err)
	}
	o.SimulateLatency(&sim.Clock{}, sim.Constant{RTT: time.Millisecond}, 9)
	if lane, ok := o.Lane(); ok || lane != nil {
		t.Fatalf("oracle with SimulateLatency armed offered a lane (%v, %v)", lane, ok)
	}
}
