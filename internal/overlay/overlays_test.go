package overlay_test

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/raceflag"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// The storage invariants of the shared core, held against both real
// overlays: the GC-settled heap budget per node that keeps 10M-peer
// rings in a few GB, slot recycling across crash/join cycles (a
// churning network must not grow its arena without bound), and the
// copy-on-write membership snapshot contract — handed-out Members()
// slices are immutable and epoch-consistent under concurrent churn.

// network is what the invariants need of an overlay; *chord.Network and
// *kademlia.Network differ only in Join's result and RunMaintenance's
// arguments, which the table rows bind.
type network struct {
	*overlay.Core
	join     func(id, via ring.Point) error
	maintain func(rounds int)
}

func chordNet(t *testing.T, cfg chord.Config, fingersPerRound int, points []ring.Point) network {
	t.Helper()
	net, err := chord.BuildStatic(cfg, simnet.NewDirect(), points)
	if err != nil {
		t.Fatal(err)
	}
	return network{
		Core:     &net.Core,
		join:     func(id, via ring.Point) error { _, err := net.Join(id, via); return err },
		maintain: func(rounds int) { net.RunMaintenance(rounds, fingersPerRound) },
	}
}

func kademliaNet(t *testing.T, points []ring.Point) network {
	t.Helper()
	net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), points)
	if err != nil {
		t.Fatal(err)
	}
	return network{
		Core:     &net.Core,
		join:     func(id, via ring.Point) error { _, err := net.Join(id, via); return err },
		maintain: net.RunMaintenance,
	}
}

var overlays = []struct {
	name string
	// Heap budget: bytes per node of a static build of budgetN peers.
	// A chord peer is a handful of packed array rows (id, ring
	// pointers, finger and successor slot references, a 16-byte
	// handle), measured at ~340 bytes/node; the budget leaves slack for
	// allocator rounding but fails long before a per-node heap object
	// sneaks back in. Kademlia adds ~log2(n) bucket regions of 1+k+4
	// words from the shared pool, ~1.6 KB/node at this n: its budget
	// must grow with log n, and the chosen n keeps the test a
	// one-second build.
	budgetN, budget int
	build           func(*testing.T, []ring.Point) network
	// Recycling: the overlay and the maintenance rounds that drop a
	// crash wave's dead references. Chord runs on the minimal ring —
	// finger tables repair one finger per round, so with them enabled
	// dead references can linger for tens of sweeps.
	recycle       func(*testing.T, []ring.Point) network
	recycleRounds int
	// joinRollsBack: a failed join allocates the joiner's slot and rolls
	// back with Crash, so it legitimately consumes one slot until the
	// next sweep. Chord resolves the successor before it allocates; its
	// only failure here is an astronomically unlikely id collision.
	joinRollsBack bool
	// churnRounds is the maintenance that keeps the overlay routable
	// between the snapshot tests' crashes and joins.
	churnRounds int
}{
	{
		name: "chord", budgetN: 1 << 17, budget: 512,
		build: func(t *testing.T, pts []ring.Point) network { return chordNet(t, chord.Config{}, 16, pts) },
		recycle: func(t *testing.T, pts []ring.Point) network {
			return chordNet(t, chord.Config{DisableFingers: true, MaxLookupHops: 1024}, 0, pts)
		},
		recycleRounds: 12, churnRounds: 2,
	},
	{
		name: "kademlia", budgetN: 1 << 14, budget: 2048,
		build: kademliaNet, recycle: kademliaNet,
		recycleRounds: 4, joinRollsBack: true, churnRounds: 1,
	},
}

func points(t *testing.T, seed uint64, n int) ([]ring.Point, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	return r.Points(), rng
}

// TestMemoryBudget pins the flat layout's per-node heap cost as the
// GC-settled heap growth across a static build.
func TestMemoryBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap budgets are not meaningful under the race detector")
	}
	for i, ov := range overlays {
		t.Run(ov.name, func(t *testing.T) {
			pts, _ := points(t, uint64(1+2*i), ov.budgetN)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			net := ov.build(t, pts)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(net)
			perNode := float64(after.HeapAlloc-min(before.HeapAlloc, after.HeapAlloc)) / float64(ov.budgetN)
			t.Logf("%s n=%d: %.0f bytes/node", ov.name, ov.budgetN, perNode)
			if perNode > float64(ov.budget) {
				t.Fatalf("%s flat storage costs %.0f bytes/node at n=%d, budget %d", ov.name, perNode, ov.budgetN, ov.budget)
			}
		})
	}
}

// TestSlotRecycling drives a crash wave through an overlay, lets
// maintenance drop the dead routing references, and checks that the
// scavenger actually frees the slots — and that subsequent joins fill
// the freed slots instead of growing the arena. A long-lived churning
// network must reach a steady-state arena size.
func TestSlotRecycling(t *testing.T) {
	for i, ov := range overlays {
		t.Run(ov.name, func(t *testing.T) {
			const n = 256
			pts, rng := points(t, uint64(5+2*i), n)
			net := ov.recycle(t, pts)
			for i := 0; i < n; i += 2 {
				if err := net.Crash(pts[i]); err != nil {
					t.Fatal(err)
				}
			}
			net.maintain(ov.recycleRounds)
			freed := net.Scavenge()
			if freed == 0 {
				t.Fatalf("scavenge freed no slots after %d crashes and maintenance", n/2)
			}
			st := net.StorageStats()
			t.Logf("after crash wave: %+v, freed %d", st, freed)
			if st.Free == 0 {
				t.Fatalf("no free slots after scavenge: %+v", st)
			}
			via := pts[1] // survived the wave (odd ranks live)
			joined, failed := 0, 0
			for joined < freed {
				if err := net.join(ring.Point(rng.Uint64()), via); err != nil {
					// Account for rolled-back joins instead of requiring
					// a perfectly clean protocol run over the damaged
					// ring.
					if ov.joinRollsBack {
						failed++
					}
					continue
				}
				joined++
			}
			st2 := net.StorageStats()
			t.Logf("after %d joins (%d rolled back): %+v", joined, failed, st2)
			if st2.Slots > st.Slots+failed {
				t.Fatalf("arena grew from %d to %d slots across %d joins (%d rolled back): joins did not reuse the %d freed slots",
					st.Slots, st2.Slots, joined, failed, freed)
			}
			if failed == 0 && st2.Free > st.Free {
				t.Fatalf("free list grew across joins: %d -> %d", st.Free, st2.Free)
			}
		})
	}
}

// TestMembersSnapshotImmutable pins the copy-on-write contract the
// index-based storage depends on: a Members() slice handed out before
// churn is bit-identical after it — splices build new slices, they
// never write through old ones — and the epoch advances so holders can
// detect staleness.
func TestMembersSnapshotImmutable(t *testing.T) {
	for _, ov := range overlays {
		t.Run(ov.name, func(t *testing.T) {
			const n = 128
			pts, rng := points(t, 9, n)
			net := ov.build(t, pts)
			snap := net.Members()
			frozen := slices.Clone(snap)
			epoch0 := net.Epoch()
			via := pts[1]
			for i := 4; i < n; i += 4 {
				if err := net.Crash(pts[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Repair the routing state before joining: a quarter of the
			// ring just vanished and joins route through what is left.
			net.maintain(ov.churnRounds)
			for i := 0; i < 16; i++ {
				if err := net.join(ring.Point(rng.Uint64()), via); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(snap, frozen) {
				t.Fatal("handed-out membership snapshot mutated under churn")
			}
			if net.Epoch() == epoch0 {
				t.Fatal("epoch did not advance across churn")
			}
			cur := net.Members()
			if slices.Equal(cur, frozen) {
				t.Fatal("current membership unchanged after churn")
			}
			if !slices.IsSorted(cur) {
				t.Fatal("current membership not sorted")
			}
		})
	}
}

// TestSnapshotConsistencyConcurrent hammers the snapshot contract
// under the race detector: readers repeatedly fetch Members() and
// verify each fetched slice is sorted and internally stable (two scans
// see the same content) while a writer churns the network. Any
// in-place splice or torn epoch publication shows up as a detector
// report or a failed invariant.
func TestSnapshotConsistencyConcurrent(t *testing.T) {
	for _, ov := range overlays {
		t.Run(ov.name, func(t *testing.T) {
			const n = 128
			pts, rng := points(t, 11, n)
			net := ov.build(t, pts)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastEpoch uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						ms := net.Members()
						e := net.Epoch()
						var sum1, sum2 ring.Point
						for _, p := range ms {
							sum1 += p
						}
						for _, p := range ms {
							sum2 += p
						}
						switch {
						case !slices.IsSorted(ms):
							t.Error("membership snapshot not sorted")
						case sum1 != sum2:
							t.Error("membership snapshot mutated between scans")
						case e < lastEpoch:
							t.Error("epoch moved backwards")
						default:
							lastEpoch = e
							continue
						}
						return
					}
				}()
			}
			via := pts[1]
			for i := 0; i < 48; i++ {
				if i%2 == 0 {
					if err := net.join(ring.Point(rng.Uint64()), via); err != nil {
						t.Error(err)
						break
					}
					continue
				}
				// Crash the most recently joined: membership shrinks
				// and grows, exercising both splice directions.
				ms := net.Members()
				victim := ms[len(ms)-1]
				if victim == via {
					victim = ms[0]
				}
				if err := net.Crash(victim); err != nil {
					t.Error(err)
					break
				}
				// Keep the overlay routable for the next join while
				// the readers hammer the snapshots.
				net.maintain(ov.churnRounds)
			}
			close(stop)
			wg.Wait()
		})
	}
}
