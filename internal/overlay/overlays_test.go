package overlay_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/adversary"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/overlays"
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

// storage is the shared handle plus the core's recycling and epoch
// observers and the rest of its ring half, which only these invariants
// read.
type storage interface {
	overlay.Network
	Scavenge() int
	Epoch() uint64
	SlotOf(id ring.Point) (uint32, bool)
	IDOf(s uint32) ring.Point
	Predecessor(from, of ring.Point) (ring.Point, bool, error)
	Ping(from, to ring.Point) error
}

func build(t *testing.T, backend string, cfg overlays.Config, points []ring.Point) storage {
	t.Helper()
	return buildOwned(t, backend, cfg, points, nil)
}

// buildOwned builds a partition hosting the points owned selects.
func buildOwned(t *testing.T, backend string, cfg overlays.Config, points []ring.Point, owned func(ring.Point) bool) storage {
	t.Helper()
	net, err := overlays.Build(backend, cfg, simnet.NewDirect(), points, owned)
	if err != nil {
		t.Fatal(err)
	}
	return net.(storage)
}

// reference is a network's membership as a plain map, kept by a test's
// one writer beside the network's own lock-free one: member id ->
// hosted by this process.
type reference map[ring.Point]bool

// disagree holds every membership reader of net to ref after a churn
// step: Members at one unchanged Epoch; LiveSlot (hosted members only)
// and SlotOf (every member, and non-members only to a slot holding
// their id) for the members and the probes; and the owner indices of
// d, refreshed — its Size, and each NeighborsOf peer of the hosted
// members at its reference rank, -1 for non-members. It returns the
// first disagreement, so the writer may run off the test goroutine.
func disagree(net storage, d *overlay.DHT, ref reference, probes []ring.Point) error {
	want := make([]ring.Point, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	e := net.Epoch()
	if m := net.Members(); !slices.Equal(m, want) || net.Epoch() != e {
		return fmt.Errorf("Members at epoch %d: %d ids, reference %d", e, len(m), len(want))
	}
	d.RefreshOwners()
	if d.Size() != len(want) {
		return fmt.Errorf("adapter size %d, reference %d", d.Size(), len(want))
	}
	for _, id := range slices.Concat(probes, want) {
		hosted, member := ref[id]
		ls, live := net.LiveSlot(id)
		ss, known := net.SlotOf(id)
		switch {
		case live != hosted || member && !known || live && ss != ls:
			return fmt.Errorf("%v (member %v, hosted %v): LiveSlot %d, %v; SlotOf %d, %v", id, member, hosted, ls, live, ss, known)
		case known && net.IDOf(ss) != id:
			return fmt.Errorf("%v resolves to slot %d holding %v", id, ss, net.IDOf(ss))
		}
		if !live {
			continue
		}
		nbrs, err := d.NeighborsOf(dht.Peer{Point: id})
		if err != nil {
			return err
		}
		for _, p := range nbrs {
			rank, ok := slices.BinarySearch(want, p.Point)
			if !ok {
				rank = -1
			}
			if p.Owner != rank {
				return fmt.Errorf("neighbor %v of %v has owner %d, reference rank %d", p.Point, id, p.Owner, rank)
			}
		}
	}
	return nil
}

var table = []struct {
	name string
	// Heap budget: bytes per node of a static build of budgetN peers.
	// A chord peer is a handful of packed array rows (id, ring
	// pointers, finger and successor slot references), measured at
	// ~324 bytes/node; the budget leaves slack for
	// allocator rounding but fails long before a per-node heap object
	// sneaks back in. Kademlia adds ~log2(n) bucket regions of 1+k+4
	// words from the shared pool, ~1.6 KB/node at this n: its budget
	// must grow with log n, and the chosen n keeps the test a
	// one-second build.
	budgetN, budget int
	// fingers is Maintain's fingersPerRound on the default build.
	fingers int
	// Recycling: the configuration and the maintenance rounds (fixing
	// no fingers) that drop a crash wave's dead references. Chord runs
	// on the minimal ring — finger tables repair one finger per round,
	// so with them enabled dead references can linger for tens of
	// sweeps.
	recycle       overlays.Config
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
		name: "chord", budgetN: 1 << 17, budget: 512, fingers: 16,
		recycle:       overlays.Config{Chord: chord.Config{DisableFingers: true, MaxLookupHops: 1024}},
		recycleRounds: 12, churnRounds: 2,
	},
	{
		name: "kademlia", budgetN: 1 << 14, budget: 2048,
		recycleRounds: 4, joinRollsBack: true, churnRounds: 1,
	},
}

// TestTableCoversEveryBackend keeps the parameter table in step with
// the builder: a new backend must state its budgets here.
func TestTableCoversEveryBackend(t *testing.T) {
	var names []string
	for _, ov := range table {
		names = append(names, ov.name)
	}
	if !slices.Equal(names, overlays.Names) {
		t.Fatalf("storage table covers %v, builder knows %v", names, overlays.Names)
	}
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
	raceflag.SkipBudgets(t)
	for i, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			pts, _ := points(t, uint64(1+2*i), ov.budgetN)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			net := build(t, ov.name, overlays.Config{}, pts)
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
	for i, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			const n = 256
			pts, rng := points(t, uint64(5+2*i), n)
			net := build(t, ov.name, ov.recycle, pts)
			ref := reference{}
			for _, id := range pts {
				ref[id] = true
			}
			via := pts[1] // survives the wave (odd ranks live)
			d, err := net.AsDHT(via)
			if err != nil {
				t.Fatal(err)
			}
			agree := func() {
				t.Helper()
				if err := disagree(net, d, ref, pts[:8]); err != nil {
					t.Fatal(err)
				}
			}
			agree()
			for i := 0; i < n; i += 2 {
				if err := net.Crash(pts[i]); err != nil {
					t.Fatal(err)
				}
				delete(ref, pts[i])
				agree()
			}
			net.Maintain(ov.recycleRounds, 0)
			freed := net.Scavenge()
			agree()
			if freed == 0 {
				t.Fatalf("scavenge freed no slots after %d crashes and maintenance", n/2)
			}
			st := net.StorageStats()
			t.Logf("after crash wave: %+v, freed %d", st, freed)
			if st.Free == 0 {
				t.Fatalf("no free slots after scavenge: %+v", st)
			}
			joined, failed := 0, 0
			for joined < freed {
				id := ring.Point(rng.Uint64())
				err := net.Join(id, via)
				if err == nil {
					ref[id] = true
				}
				agree()
				if err != nil {
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
	for _, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			const n = 128
			pts, rng := points(t, 9, n)
			net := build(t, ov.name, overlays.Config{}, pts)
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
			net.Maintain(ov.churnRounds, ov.fingers)
			for i := 0; i < 16; i++ {
				if err := net.Join(ring.Point(rng.Uint64()), via); err != nil {
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
	for _, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			const n = 128
			pts, rng := points(t, 11, n)
			net := build(t, ov.name, overlays.Config{}, pts)
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
					if err := net.Join(ring.Point(rng.Uint64()), via); err != nil {
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
				net.Maintain(ov.churnRounds, ov.fingers)
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestMembersEpochSnapshotRace drives concurrent churn (joins, crashes
// and sweeps), owner lookups and membership readers over one network of
// each backend. Under -race it proves the lock-free per-epoch
// membership safe. The one writer holds every reader to a map
// reference after each step; the readers check that each snapshot is
// sorted and duplicate-free, that an unchanged epoch brackets an
// unchanged snapshot, and that the member nobody crashes always
// resolves to one slot.
func TestMembersEpochSnapshotRace(t *testing.T) {
	for i, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			pts, _ := points(t, uint64(42+2*i), 48)
			net := build(t, ov.name, overlays.Config{}, pts)
			anchor := pts[0]
			d, err := net.AsDHT(anchor)
			if err != nil {
				t.Fatal(err)
			}
			ref := reference{}
			for _, id := range pts {
				ref[id] = true
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				wrng := rand.New(rand.NewPCG(7, 8))
				for step := 0; step < 150; step++ {
					members := net.Members()
					switch op := wrng.IntN(8); {
					case op < 4:
						if id := ring.Point(wrng.Uint64()); net.Join(id, members[wrng.IntN(len(members))]) == nil {
							ref[id] = true
						}
					case op < 7:
						if victim := members[wrng.IntN(len(members))]; len(members) > 8 && victim != anchor {
							if err := net.Crash(victim); err != nil {
								t.Error(err)
								return
							}
							delete(ref, victim)
						}
					default:
						net.Scavenge()
					}
					net.Maintain(1, 4)
					if err := disagree(net, d, ref, pts[:8]); err != nil {
						t.Errorf("step %d: %v", step, err)
						return
					}
				}
			}()
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						e1 := net.Epoch()
						m := net.Members()
						s, live := net.LiveSlot(anchor)
						s2, known := net.SlotOf(anchor)
						e2 := net.Epoch()
						for i := 1; i < len(m); i++ {
							if m[i] <= m[i-1] {
								t.Errorf("snapshot not sorted/duplicate-free at %d", i)
								return
							}
						}
						if e1 == e2 && len(m) != len(net.Members()) && net.Epoch() == e1 {
							t.Error("epoch unchanged but snapshot length moved")
							return
						}
						if !live || !known || s != s2 {
							t.Errorf("anchor: LiveSlot %d, %v; SlotOf %d, %v", s, live, s2, known)
							return
						}
					}
				}()
			}
			// Concurrent lookups from the protected member.
			wg.Add(1)
			go func() {
				defer wg.Done()
				lrng := rand.New(rand.NewPCG(9, 10))
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = net.Owner(anchor, ring.Point(lrng.Uint64()))
				}
			}()
			wg.Wait()
		})
	}
}

// TestPartitionedMembership: a build hosting every other point keeps
// the rest as members this process cannot serve — in Members, SlotOf
// and the owner indices, never in LiveSlot — refuses to crash them and
// keeps their slots through sweeps, while the hosted half crashes.
func TestPartitionedMembership(t *testing.T) {
	for i, ov := range table {
		t.Run(ov.name, func(t *testing.T) {
			pts, _ := points(t, uint64(61+2*i), 64)
			ref := reference{}
			for j, id := range pts {
				ref[id] = j%2 == 0
			}
			net := buildOwned(t, ov.name, overlays.Config{}, pts, func(id ring.Point) bool { return ref[id] })
			d, err := net.AsDHT(pts[0])
			if err != nil {
				t.Fatal(err)
			}
			agree := func() {
				t.Helper()
				if err := disagree(net, d, ref, nil); err != nil {
					t.Fatal(err)
				}
			}
			agree()
			for j := 1; j < len(pts); j++ {
				err := net.Crash(pts[j])
				if hosted := j%2 == 0; hosted != (err == nil) {
					t.Fatalf("Crash of point %d (hosted %v) = %v", j, hosted, err)
				}
				if err == nil {
					delete(ref, pts[j])
				}
				agree()
			}
			net.Scavenge()
			agree()
		})
	}
}

// TestNetworkContract holds every backend the builder knows to the
// membership and maintenance contract of the shared handle, with no
// per-backend parameter: what a consumer above the protocol packages
// may rely on without knowing which overlay it holds.
func TestNetworkContract(t *testing.T) {
	for i, name := range overlays.Names {
		t.Run(name, func(t *testing.T) {
			const n = 64
			pts, rng := points(t, uint64(21+2*i), n)
			net := build(t, name, overlays.Config{}, pts)
			if err := net.VerifyRing(); err != nil {
				t.Fatalf("static build: %v", err)
			}
			// The shared ring half reads each overlay's own pointers.
			for j, id := range pts {
				succ, err := net.Successor(pts[0], id)
				if want := pts[(j+1)%n]; err != nil || succ != want {
					t.Fatalf("Successor(%v) = %v, %v; want %v", id, succ, err, want)
				}
				pred, has, err := net.Predecessor(pts[0], id)
				if want := pts[(j+n-1)%n]; err != nil || !has || pred != want {
					t.Fatalf("Predecessor(%v) = %v, %v, %v; want %v, true", id, pred, has, err, want)
				}
			}
			if err := net.Join(pts[3], pts[0]); !errors.Is(err, overlay.ErrNodeExists) {
				t.Errorf("Join of a live id = %v, want ErrNodeExists", err)
			}
			if err := net.JoinVia(pts[3], pts[0]); !errors.Is(err, overlay.ErrNodeExists) {
				t.Errorf("JoinVia of a live id = %v, want ErrNodeExists", err)
			}
			absent := ring.Point(rng.Uint64())
			if err := net.Crash(absent); !errors.Is(err, overlay.ErrNodeNotFound) {
				t.Errorf("Crash of an absent id = %v, want ErrNodeNotFound", err)
			}

			victim := pts[5]
			if err := net.Ping(pts[0], victim); err != nil {
				t.Fatalf("Ping of a live node: %v", err)
			}
			if err := net.Crash(victim); err != nil {
				t.Fatal(err)
			}
			if err := net.Ping(pts[0], victim); !errors.Is(err, simnet.ErrUnknownNode) {
				t.Errorf("Ping of a crashed node = %v, want ErrUnknownNode", err)
			}
			net.MaintainNode(victim, 0, 4)
			if _, ok := net.LiveSlot(victim); ok || net.NumAlive() != n-1 {
				t.Errorf("MaintainNode resurrected a crashed node: live=%v, %d alive, want %d", ok, net.NumAlive(), n-1)
			}
			if _, err := net.AsDHT(victim); !errors.Is(err, overlay.ErrNodeNotFound) {
				t.Errorf("AsDHT from a crashed caller = %v, want ErrNodeNotFound", err)
			}

			// A crash wave damages the ring; maintenance alone restores it.
			for j := 8; j < n; j += 4 {
				if err := net.Crash(pts[j]); err != nil {
					t.Fatal(err)
				}
			}
			net.Maintain(12, 16)
			if err := net.VerifyRing(); err != nil {
				t.Errorf("ring not repaired after a crash wave and 12 rounds: %v", err)
			}
			// The repaired ring takes a join through the shared entry
			// point and routes to the joiner.
			joiner := ring.Point(rng.Uint64())
			if err := net.Join(joiner, pts[0]); err != nil {
				t.Fatal(err)
			}
			net.Maintain(4, 16)
			if owner, err := net.Owner(pts[0], joiner); err != nil || owner != joiner {
				t.Errorf("Owner(joiner) = %v, %v; want the joiner %v", owner, err, joiner)
			}
			if st := net.StorageStats(); st.Live != net.NumAlive() {
				t.Errorf("StorageStats.Live = %d, NumAlive = %d", st.Live, net.NumAlive())
			}
		})
	}
}

// TestPointerLiesOnEveryBackend arms an attack on each backend's shared
// pointer queries: route-bias colluders answer them with coalition
// members (each overlay forges its own lie into the shared reply),
// censoring ones drop them, and honest nodes still tell the truth.
func TestPointerLiesOnEveryBackend(t *testing.T) {
	for i, name := range overlays.Names {
		for _, kind := range []adversary.Kind{adversary.RouteBias, adversary.Censor} {
			t.Run(name+"/"+kind.String(), func(t *testing.T) {
				const n = 64
				pts, _ := points(t, uint64(41+2*i), n)
				net := build(t, name, overlays.Config{}, pts)
				plan, err := adversary.New(pts, adversary.Config{Kind: kind, Fraction: 0.25, Seed: 3, Exclude: pts[:1]})
				if err != nil {
					t.Fatal(err)
				}
				lies, err := plan.Interceptor(net)
				if err != nil {
					t.Fatal(err)
				}
				net.Transport().(simnet.Interceptable).SetInterceptor(lies)
				for j, id := range pts {
					succ, serr := net.Successor(pts[0], id)
					pred, has, perr := net.Predecessor(pts[0], id)
					switch {
					case !plan.Contains(id):
						if serr != nil || perr != nil || succ != pts[(j+1)%n] || !has || pred != pts[(j+n-1)%n] {
							t.Fatalf("honest %v: successor %v, %v; predecessor %v, %v, %v", id, succ, serr, pred, has, perr)
						}
					case kind == adversary.Censor:
						if !errors.Is(serr, simnet.ErrDropped) || !errors.Is(perr, simnet.ErrDropped) {
							t.Fatalf("censor %v: successor error %v, predecessor error %v; want ErrDropped", id, serr, perr)
						}
					default:
						if serr != nil || perr != nil || !has || !plan.Contains(succ) || !plan.Contains(pred) {
							t.Fatalf("liar %v: successor %v, %v; predecessor %v, %v, %v; want coalition members", id, succ, serr, pred, has, perr)
						}
					}
				}
			})
		}
	}
}
