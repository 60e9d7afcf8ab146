package kademlia

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// BenchmarkClosestIntoSlot: one handler-side FIND_NODE selection at the
// repository benchmark's size (n = 16384, k = 16) — a random node
// answering for a random target, self included, into a reused buffer.
// It is the direct number behind the kademlia.handler_ns_per_call
// ledger row, which also pays for the sender's table touch.
func BenchmarkClosestIntoSlot(b *testing.B) {
	const n, k = 16384, 16
	rng := rand.New(rand.NewPCG(49, 49))
	r, err := ring.Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	net, err := BuildStatic(Config{BucketSize: k}, simnet.NewDirect(), r.Points())
	if err != nil {
		b.Fatal(err)
	}
	var best []ring.Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best = net.closestIntoSlot(uint32(rng.IntN(n)), best, ring.Point(rng.Uint64()), k, true)
	}
	if len(best) != k {
		b.Fatalf("selection returned %d contacts, want %d", len(best), k)
	}
}

// BenchmarkResolveOwner: one h lookup at the repository benchmark's
// size (n = 16384, k = 16) from a fixed initiator toward scattered
// targets, over simnet.Direct: the initiator's shortlist, every
// FIND_NODE handler it reaches and the ring-pointer verification. It is
// the direct number behind the kademlia.self_us_per_h and dht.h_us
// ledger rows.
func BenchmarkResolveOwner(b *testing.B) {
	const n, k = 16384, 16
	rng := rand.New(rand.NewPCG(50, 50))
	r, err := ring.Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	net, err := BuildStatic(Config{BucketSize: k}, simnet.NewDirect(), r.Points())
	if err != nil {
		b.Fatal(err)
	}
	from := r.At(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.ResolveOwner(from, ring.Point(rng.Uint64())); err != nil {
			b.Fatal(err)
		}
	}
}
