// DHT storage: the Chord substrate as an actual hash table. Stores
// key/value pairs with 3-way replication, then demonstrates that data
// survives abrupt node crashes (replica fallback + stabilization) and
// graceful departures (key handoff), exactly the environment the
// King–Saia sampler is designed to run inside.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"slices"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/ring"
)

func main() {
	const n = 128
	tb, err := randompeer.New(
		randompeer.WithPeers(n),
		randompeer.WithSeed(3),
		randompeer.WithBackend(randompeer.ChordBackend),
	)
	if err != nil {
		log.Fatal(err)
	}
	net := tb.ChordNetwork()
	reader, err := tb.Peer(0)
	if err != nil {
		log.Fatal(err)
	}
	home := reader.Point

	// Store 500 items with 3-way replication.
	rng := rand.New(rand.NewPCG(9, 9))
	keys := make([]ring.Point, 500)
	for i := range keys {
		keys[i] = ring.Point(rng.Uint64())
		value := fmt.Sprintf("item-%04d", i)
		if err := net.Put(home, keys[i], []byte(value), 3); err != nil {
			log.Fatalf("put %d: %v", i, err)
		}
	}
	fmt.Printf("stored %d items across %d nodes (3 replicas each)\n", len(keys), n)

	// Crash 20 nodes chosen uniformly at random (none of them the
	// reader). Random failures are what the successor-list replication
	// tolerates; a run of >= SuccListLen consecutive crashes between two
	// maintenance rounds is the designed-in loss boundary, as in real
	// Chord.
	// Members returns a shared immutable snapshot; clone before shuffling.
	members := slices.Clone(net.Members())
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	crashed := 0
	for _, id := range members {
		if id == home || crashed >= 20 {
			continue
		}
		if err := net.Crash(id); err != nil {
			log.Fatal(err)
		}
		crashed++
	}
	net.Maintain(10, 16)
	fmt.Printf("crashed %d nodes abruptly, ring repaired: %v\n",
		crashed, net.VerifyRing() == nil)

	lost := 0
	for _, key := range keys {
		if _, err := net.Get(home, key); err != nil {
			lost++
		}
	}
	fmt.Printf("items still readable after crashes: %d/%d\n", len(keys)-lost, len(keys))

	// Ten more nodes leave gracefully: zero loss by design.
	left := 0
	for _, id := range net.Members() {
		if id == home || left >= 10 {
			continue
		}
		if err := net.Leave(id); err != nil {
			log.Fatal(err)
		}
		net.Maintain(1, 16)
		left++
	}
	lost = 0
	for _, key := range keys {
		if _, err := net.Get(home, key); err != nil {
			lost++
		}
	}
	fmt.Printf("items readable after %d graceful departures: %d/%d\n",
		left, len(keys)-lost, len(keys))
	fmt.Printf("network now has %d live nodes\n", net.NumAlive())
}
