package chord

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 101, 64)
	rng := rand.New(rand.NewPCG(1, 1))
	from := r.At(0)
	type kv struct {
		key ring.Point
		val []byte
	}
	items := make([]kv, 200)
	for i := range items {
		items[i] = kv{
			key: ring.Point(rng.Uint64()),
			val: []byte(fmt.Sprintf("value-%d", i)),
		}
		if err := net.Put(from, items[i].key, items[i].val, 3); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i, item := range items {
		got, err := net.Get(from, item.key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, item.val) {
			t.Fatalf("get %d = %q, want %q", i, got, item.val)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 103, 16)
	if _, err := net.Get(r.At(0), ring.Point(12345)); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("err = %v, want ErrKeyNotFound", err)
	}
}

func TestPutValidation(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 105, 8)
	if err := net.Put(r.At(0), 1, []byte("x"), 0); err == nil {
		t.Error("zero replicas should fail")
	}
}

func TestPutStoresAtOwner(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 107, 32)
	rng := rand.New(rand.NewPCG(2, 2))
	key := ring.Point(rng.Uint64())
	if err := net.Put(r.At(0), key, []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	owner := r.At(r.Successor(key))
	count, err := net.StoredKeys(owner)
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("owner holds %d keys, want 1", count)
	}
}

// TestGetFallsBackToOwnSuccessorList: when the owner a lookup names
// cannot be asked for its successor list, Get reads the replicas on the
// reader's own successor list.
func TestGetFallsBackToOwnSuccessorList(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 111, 16)
	from, owner := r.At(4), r.At(5)
	key := ring.Sub(owner, 1)
	if err := net.Put(from, key, []byte("v"), 3); err != nil {
		t.Fatal(err)
	}
	// The reader's successor pointer still names the crashed owner, so
	// its lookup answers the owner without a call.
	if err := net.Crash(owner); err != nil {
		t.Fatal(err)
	}
	if got, err := net.Get(from, key); err != nil || string(got) != "v" {
		t.Fatalf("Get past an unreachable owner = %q, %v", got, err)
	}
}

func TestReplicationSurvivesOwnerCrash(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 109, 64)
	rng := rand.New(rand.NewPCG(3, 3))
	from := r.At(0)
	keys := make([]ring.Point, 100)
	for i := range keys {
		keys[i] = ring.Point(rng.Uint64())
		if err := net.Put(from, keys[i], []byte{byte(i)}, 3); err != nil {
			t.Fatal(err)
		}
	}
	// Crash a quarter of the nodes, none of them the reader.
	perm := rng.Perm(r.Len() - 1)
	for _, idx := range perm[:16] {
		if err := net.Crash(r.At(idx + 1)); err != nil {
			t.Fatal(err)
		}
	}
	net.Maintain(10, 16)
	lost := 0
	for i, key := range keys {
		got, err := net.Get(from, key)
		if err != nil {
			lost++
			continue
		}
		if !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("key %d corrupted", i)
		}
	}
	// 3-way replication with random 25% crashes: losing a key requires 3
	// consecutive successors crashed; tolerate a couple of unlucky keys.
	if lost > 5 {
		t.Errorf("lost %d/100 keys after 25%% crashes with 3 replicas", lost)
	}
}

func TestPullKeysOnJoin(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 111, 32)
	rng := rand.New(rand.NewPCG(4, 4))
	from := r.At(0)
	for i := 0; i < 300; i++ {
		if err := net.Put(from, ring.Point(rng.Uint64()), []byte{1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A new node joins and pulls its range from its successor.
	newID := ring.Point(rng.Uint64())
	if err := net.Join(newID, from); err != nil {
		t.Fatal(err)
	}
	net.Maintain(4, 8)
	moved, err := net.PullKeys(newID)
	if err != nil {
		t.Fatal(err)
	}
	count, err := net.StoredKeys(newID)
	if err != nil {
		t.Fatal(err)
	}
	if count != moved {
		t.Errorf("StoredKeys = %d, moved = %d", count, moved)
	}
	// Every key must still be readable (whether served by the new owner
	// or the old one, which keeps its copy as a replica).
	net.Maintain(4, 8)
	if _, err := net.Get(newID, newID); errors.Is(err, ErrLookupAborted) {
		t.Fatalf("lookup broken after join: %v", err)
	}
}

func TestPullKeysSingleNode(t *testing.T) {
	t.Parallel()
	tr := simnet.NewDirect()
	net := NewNetwork(Config{}, tr)
	if _, err := net.Create(42); err != nil {
		t.Fatal(err)
	}
	moved, err := net.PullKeys(42)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("single node moved %d keys", moved)
	}
}

func TestStoredKeysUnknownNode(t *testing.T) {
	t.Parallel()
	net, _ := newStatic(t, 113, 4)
	if _, err := net.StoredKeys(ring.Point(99)); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestStorageValueIsolation(t *testing.T) {
	t.Parallel()
	// Values must be defensively copied on both put and get.
	net, r := newStatic(t, 115, 8)
	val := []byte("original")
	key := ring.Point(7)
	if err := net.Put(r.At(0), key, val, 1); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X' // mutating the caller's buffer must not affect the store
	got, err := net.Get(r.At(0), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Errorf("stored value affected by caller mutation: %q", got)
	}
	got[0] = 'Y' // mutating the fetched buffer must not affect the store
	again, err := net.Get(r.At(0), key)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != "original" {
		t.Errorf("stored value affected by reader mutation: %q", again)
	}
}

func TestKeyDistributionFollowsArcs(t *testing.T) {
	t.Parallel()
	// With replicas = 1, each node's primary-key count is proportional
	// to its arc — the load imbalance that motivates both virtual nodes
	// and the paper's uniform sampling discussion.
	net, r := newStatic(t, 117, 16)
	rng := rand.New(rand.NewPCG(5, 5))
	from := r.At(0)
	const keys = 4000
	for i := 0; i < keys; i++ {
		if err := net.Put(from, ring.Point(rng.Uint64()), []byte{1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < r.Len(); i++ {
		count, err := net.StoredKeys(r.At(i))
		if err != nil {
			t.Fatal(err)
		}
		expect := ring.UnitsToFrac(r.Arc(r.PrevIndex(i))) * keys
		// Poisson-ish tolerance around the expectation.
		if float64(count) < expect-6*sqrtPlus1(expect) || float64(count) > expect+6*sqrtPlus1(expect) {
			t.Errorf("node %d holds %d keys, expected ~%.0f (arc share)", i, count, expect)
		}
	}
}

func TestLeaveHandsOverKeysAndSplicesRing(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 119, 32)
	rng := rand.New(rand.NewPCG(6, 6))
	from := r.At(0)
	keys := make([]ring.Point, 150)
	for i := range keys {
		keys[i] = ring.Point(rng.Uint64())
		if err := net.Put(from, keys[i], []byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// A non-reader node leaves gracefully.
	leaver := r.At(10)
	if err := net.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	// Without any maintenance round: the ring is already consistent and
	// every key (1 replica only!) is still readable.
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring inconsistent immediately after graceful leave: %v", err)
	}
	for i, key := range keys {
		got, err := net.Get(from, key)
		if err != nil {
			t.Fatalf("key %d lost after graceful leave: %v", i, err)
		}
		if !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("key %d corrupted after leave", i)
		}
	}
	if net.NumAlive() != 31 {
		t.Errorf("NumAlive = %d, want 31", net.NumAlive())
	}
}

func TestLeaveUnknownNode(t *testing.T) {
	t.Parallel()
	net, _ := newStatic(t, 121, 4)
	if err := net.Leave(ring.Point(5)); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("err = %v, want ErrNodeNotFound", err)
	}
}

func TestSequentialLeavesKeepData(t *testing.T) {
	t.Parallel()
	net, r := newStatic(t, 123, 24)
	rng := rand.New(rand.NewPCG(7, 7))
	from := r.At(0)
	const keyCount = 80
	keys := make([]ring.Point, keyCount)
	for i := range keys {
		keys[i] = ring.Point(rng.Uint64())
		if err := net.Put(from, keys[i], []byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Half the nodes (not the reader) leave gracefully one by one. A
	// single maintenance round between leaves keeps fingers fresh (the
	// splice keeps successor pointers exact on its own, but routing
	// across many departures also needs fix-fingers, as in real Chord).
	for i := 1; i <= 12; i++ {
		if err := net.Leave(r.At(i)); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
		net.Maintain(1, 16)
	}
	for i, key := range keys {
		if _, err := net.Get(from, key); err != nil {
			t.Fatalf("key %d lost after %d graceful leaves: %v", i, 12, err)
		}
	}
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring inconsistent after sequential leaves: %v", err)
	}
}

func sqrtPlus1(x float64) float64 {
	if x < 1 {
		x = 1
	}
	s := x
	// Newton iterations suffice for test tolerance.
	for i := 0; i < 20; i++ {
		s = (s + x/s) / 2
	}
	return s + 1
}
