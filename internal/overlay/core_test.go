package overlay

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// fake is the smallest overlay the core can carry: one successor word
// per slot, guarded by the slot's stripe. Handle answers every RPC with
// the successor's identifier.
type fake struct {
	Core
	succ []uint32
}

func newFake(tr simnet.Transport) *fake {
	f := &fake{}
	f.Init(tr, Hooks{
		Grow:  func(capacity int) { f.succ = GrowCopy(f.succ, capacity) },
		Reset: func(s uint32) { f.succ[s] = s },
		Mark:  func(s uint32, m Marks) { m.Set(f.succ[s]) },
		Drop:  func(uint32) {},
		Handle: func(s uint32, _ simnet.NodeID, _ simnet.Message) (simnet.Message, error) {
			return f.succOf(s), nil
		},
	})
	return f
}

func (f *fake) succOf(s uint32) ring.Point {
	st := f.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	return f.ID(f.succ[s])
}

// point makes slot s reference the node with the given id, interning it
// first (lock order: core mutex before stripe).
func (f *fake) point(s uint32, id ring.Point) {
	t := f.Intern(id)
	st := f.Stripe(s)
	st.Lock()
	f.succ[s] = t
	st.Unlock()
}

// check asserts the arena invariants that must hold between any two
// operations.
func (f *fake) check(t *testing.T, step int) {
	t.Helper()
	f.mu.RLock()
	defer f.mu.RUnlock()
	m := f.members.Load()
	st := StorageStats{Slots: f.used, Live: m.ring.Len(), Free: len(f.free), Reclaimable: f.reclaimable}
	if st.Slots != st.Live+st.Free+st.Reclaimable {
		t.Fatalf("step %d: %+v: Slots != Live + Free + Reclaimable", step, st)
	}
	if len(m.slots) != m.ring.Len() {
		t.Fatalf("step %d: %d members, %d member slots", step, m.ring.Len(), len(m.slots))
	}
	seen, reach := make(Marks, (f.used+63)/64), make(Marks, (f.used+63)/64)
	for i, id := range m.ring.Sorted() {
		s := m.slots[i] &^ remote
		if i > 0 && m.ring.At(i-1) >= id {
			t.Fatalf("step %d: members not sorted and duplicate-free at %d", step, i)
		}
		if f.ID(s) != id || seen.Has(s) || f.freeBits.Has(s) {
			t.Fatalf("step %d: member %d: slot %d holds id %d, shared=%v, free=%v",
				step, id, s, f.ID(s), seen.Has(s), f.freeBits.Has(s))
		}
		seen.Set(s)
		if m.slots[i]&remote == 0 {
			f.hooks.Mark(s, reach)
		}
	}
	for _, s := range f.free {
		if reach.Has(s) || !f.freeBits.Has(s) {
			t.Fatalf("step %d: freed slot %d: referenced by a live slot=%v, in free bitset=%v",
				step, s, reach.Has(s), f.freeBits.Has(s))
		}
	}
	for id, s := range f.overflow {
		if f.ID(s) != id || seen.Has(s) || f.freeBits.Has(s) {
			t.Fatalf("step %d: overflow %d -> slot %d holds id %d, member=%v, free=%v",
				step, id, s, f.ID(s), seen.Has(s), f.freeBits.Has(s))
		}
	}
}

// anchor is the first node of every history and the one it never
// crashes, so concurrent readers can rely on it.
const anchor = ring.Point(1)

// history drives 2500 steps of a seeded random create/join/crash/
// rejoin-same-id/intern-external/Scavenge sequence through a fake
// overlay, checking the invariants after every step, and returns the
// slot every allocation landed in: the reuse order.
func history(t *testing.T, f *fake, seed uint64) []uint32 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e37))
	var order []uint32
	var known, crashed []ring.Point // every id ever seen; ids currently crashed
	add := func(id ring.Point) {
		s, err := f.AddNode(id)
		if err != nil {
			t.Fatalf("AddNode(%d): %v", id, err)
		}
		order = append(order, s)
		if len(known) > 0 {
			f.point(s, known[rng.IntN(len(known))])
		}
		known = append(known, id)
	}
	add(anchor)
	for step := 0; step < 2500; step++ {
		switch op := rng.IntN(10); {
		case op < 4: // join a fresh id, pointing at anything ever seen
			add(ring.Point(rng.Uint64()))
		case op < 6: // crash a member (never the anchor the readers use)
			ms := f.Members()
			if id := ms[rng.IntN(len(ms))]; id != anchor {
				if err := f.Crash(id); err != nil {
					t.Fatalf("step %d: Crash(%d): %v", step, id, err)
				}
				crashed = append(crashed, id)
				if err := f.Crash(id); !errors.Is(err, ErrNodeNotFound) {
					t.Fatalf("step %d: second Crash(%d) = %v, want ErrNodeNotFound", step, id, err)
				}
			}
		case op < 7: // rejoin a crashed id: its zombie slot, if not yet swept
			if len(crashed) > 0 {
				i := rng.IntN(len(crashed))
				id := crashed[i]
				crashed = slices.Delete(crashed, i, i+1)
				zombie, parked := f.SlotOf(id)
				add(id)
				if got := order[len(order)-1]; parked && got != zombie {
					t.Fatalf("step %d: rejoin of %d took slot %d, its zombie is slot %d", step, id, got, zombie)
				}
				if _, err := f.AddNode(id); !errors.Is(err, ErrNodeExists) {
					t.Fatalf("step %d: second AddNode(%d) = %v, want ErrNodeExists", step, id, err)
				}
			}
		case op < 9: // a live node learns an external contact
			ms := f.Members()
			s, _ := f.LiveSlot(ms[rng.IntN(len(ms))])
			id := ring.Point(rng.Uint64())
			f.point(s, id)
			ext, _ := f.SlotOf(id)
			order = append(order, ext)
			known = append(known, id)
		default:
			f.Scavenge()
		}
		f.check(t, step)
	}
	// Dispatch reaches exactly the live nodes and lands on the slot
	// that holds them now.
	for _, id := range f.Members() {
		s, _ := f.LiveSlot(id)
		resp, err := f.Call(anchor, id, nil)
		if err != nil || resp != f.succOf(s) {
			t.Fatalf("call to member %d = %v, %v; want %d", id, resp, err, f.succOf(s))
		}
	}
	for _, id := range crashed {
		if _, err := f.Call(anchor, id, nil); !errors.Is(err, simnet.ErrUnknownNode) {
			t.Fatalf("call to crashed %d = %v, want ErrUnknownNode", id, err)
		}
	}
	if st := f.StorageStats(); st.Slots >= len(known) {
		t.Fatalf("history never recycled a slot: %+v for %d ids", st, len(known))
	}
	return order
}

// TestCoreHistories runs each seeded history twice: the invariants hold
// after every step and slot reuse order is a function of the history
// alone.
func TestCoreHistories(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		first := history(t, newFake(simnet.NewDirect()), seed)
		if again := history(t, newFake(simnet.NewDirect()), seed); !slices.Equal(first, again) {
			t.Fatalf("seed %d: slot reuse order differs between two runs", seed)
		}
	}
}

// TestCoreRefusedRegistration: a closed transport refuses the network's
// one bulk registration, and that surfaces where a node would have gone
// unserved.
func TestCoreRefusedRegistration(t *testing.T) {
	tr := simnet.NewDirect()
	tr.Close()
	f := newFake(tr)
	if _, err := f.AddNode(anchor); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("AddNode on a closed transport = %v, want ErrClosed", err)
	}
	if err := f.BuildStatic([]ring.Point{1, 2}, nil, func(*ring.Ring, []int) {}); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("BuildStatic on a closed transport = %v, want ErrClosed", err)
	}
}

// TestCoreConcurrentReaders runs a history while readers resolve the
// anchor through Intern, SlotOf, Members and an RPC. Under -race it
// proves growth, sweeps and splices never hand a reader a half-moved
// arena; the reuse order must not notice the readers (the anchor never
// crashes, so interning it never allocates).
func TestCoreConcurrentReaders(t *testing.T) {
	want := history(t, newFake(simnet.NewDirect()), 42)
	f := newFake(simnet.NewDirect())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, ok := f.LiveSlot(anchor)
				if !ok {
					continue // the history has not created it yet
				}
				if got, _ := f.SlotOf(anchor); got != s || f.Intern(anchor) != s {
					t.Errorf("anchor resolves to slots %d, %d and %d", s, got, f.Intern(anchor))
					return
				}
				if ms := f.Members(); !slices.IsSorted(ms) || !slices.Contains(ms, anchor) {
					t.Error("membership snapshot unsorted or missing the anchor")
					return
				}
				if _, err := f.Call(2, anchor, nil); err != nil {
					t.Errorf("call to anchor: %v", err)
					return
				}
			}
		}()
	}
	got := history(t, f, 42)
	close(stop)
	wg.Wait()
	if !slices.Equal(got, want) {
		t.Fatal("slot reuse order changed under concurrent readers")
	}
}

// agree holds every membership reader to ref, the members and their
// slots as a plain map: Members and Epoch read from one epoch, LiveSlot
// and SlotOf for members and non-members, and the adapter's owner
// indices after a refresh. Non-members may still resolve through
// SlotOf (zombies and contacts), but only to a slot holding their id.
func (f *fake) agree(t *testing.T, ref map[ring.Point]uint32, probes []ring.Point) {
	t.Helper()
	var want []ring.Point
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	m := f.members.Load()
	if !slices.Equal(f.Members(), want) || !slices.Equal(m.ring.Sorted(), want) || f.Epoch() != m.epoch || f.NumAlive() != len(want) {
		t.Fatalf("membership %v at epoch %d, reference %v", f.Members(), f.Epoch(), want)
	}
	d := &DHT{core: &f.Core}
	d.RefreshOwners()
	if d.Size() != len(want) {
		t.Fatalf("adapter size %d, reference %d", d.Size(), len(want))
	}
	for _, id := range slices.Concat(probes, want) {
		s, member := ref[id]
		ls, live := f.LiveSlot(id)
		ss, known := f.SlotOf(id)
		rank, _ := slices.BinarySearch(want, id)
		if !member {
			rank = -1
		}
		switch {
		case live != member || member && (ls != s || !known || ss != s):
			t.Fatalf("member %d (slot %d, %v): LiveSlot %d, %v; SlotOf %d, %v", id, s, member, ls, live, ss, known)
		case known && f.IDOf(ss) != id:
			t.Fatalf("%d resolves to slot %d holding %d", id, ss, f.IDOf(ss))
		case d.peerOf(id).Owner != rank:
			t.Fatalf("peerOf(%d).Owner = %d, reference rank %d", id, d.peerOf(id).Owner, rank)
		}
	}
}

// TestCoreEdgeMemberships drives the lock-free membership through the
// rings that stress its directory — one member, both ends of the
// circle, adjacent ids, every id in one directory bucket — joining then
// crashing each, and through a membership grown to 70 and crashed back
// to one, which crosses every directory resize (n/4 reaching a power
// of two) both ways; after every step agree holds it to a map.
func TestCoreEdgeMemberships(t *testing.T) {
	const top = math.MaxUint64
	oneBucket := make([]ring.Point, 40)
	for i := range oneBucket {
		oneBucket[i] = ring.Point(1<<40 + uint64(i))
	}
	rng := rand.New(rand.NewPCG(8, 9))
	grown := make([]ring.Point, 70)
	for i := range grown {
		grown[i] = ring.Point(rng.Uint64())
	}
	for _, ids := range [][]ring.Point{{5}, {0, top}, {top, 0, 1, top - 1}, {7, 8, 9}, oneBucket, grown} {
		f := newFake(simnet.NewDirect())
		ref := map[ring.Point]uint32{}
		probes := append([]ring.Point{0, 1, top, 1 << 40}, ids...)
		for _, id := range ids {
			s, err := f.AddNode(id)
			if err != nil {
				t.Fatal(err)
			}
			ref[id] = s
			f.agree(t, ref, probes)
		}
		for _, id := range ids[1:] {
			if err := f.Crash(id); err != nil {
				t.Fatal(err)
			}
			delete(ref, id)
			f.agree(t, ref, probes)
		}
		f.Scavenge()
		f.agree(t, ref, probes)
	}
}

// TestCorePartitionedBuild: a static build hosting every other point
// keeps the rest as members this process cannot serve — in Members and
// SlotOf, never in LiveSlot — will not crash them and never sweeps
// their slots.
func TestCorePartitionedBuild(t *testing.T) {
	pts, err := ring.Generate(rand.New(rand.NewPCG(4, 4)), 64)
	if err != nil {
		t.Fatal(err)
	}
	f := newFake(simnet.NewDirect())
	owned := func(id ring.Point) bool { return pts.IndexOf(id)%2 == 0 }
	if err := f.BuildStatic(pts.Points(), owned, func(*ring.Ring, []int) {}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Members(), pts.Sorted()) || f.StorageStats().Live != 32 {
		t.Fatalf("partitioned build: %d members, %+v", len(f.Members()), f.StorageStats())
	}
	for i, id := range pts.Sorted() {
		ls, live := f.LiveSlot(id)
		ss, known := f.SlotOf(id)
		if live != owned(id) || !known || ss != uint32(i) || live && ls != ss {
			t.Fatalf("point %d (owned %v): LiveSlot %d, %v; SlotOf %d, %v", i, owned(id), ls, live, ss, known)
		}
		if err := f.Crash(id); owned(id) != (err == nil) {
			t.Fatalf("Crash of point %d (owned %v) = %v", i, owned(id), err)
		}
	}
	// The sweep frees the crashed half and keeps the remote members.
	if freed := f.Scavenge(); f.NumAlive() != 32 || freed != 32 {
		t.Fatalf("after crashing the hosted half: %d members, %d freed", f.NumAlive(), freed)
	}
	f.check(t, 0)
}
