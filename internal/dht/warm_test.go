package dht

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// warmRing builds the oracle FuzzOracleLaneWarm runs on: kind 0 is a
// uniform ring, 1 a virtual-owner ring, 2 a skewed ring whose points
// all share one bucket of the directory.
func warmRing(t *testing.T, kind byte, seed uint64) *Oracle {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	switch kind % 3 {
	case 0:
		o, err := GenerateOracle(rng, 1+int(seed%2000))
		if err != nil {
			t.Fatal(err)
		}
		return o
	case 1:
		o, err := NewVirtualOracle(rng, 1+int(seed%64), 1+int(seed%7))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	n := 2 + int(seed%500)
	seen := make(map[ring.Point]bool, n)
	points := make([]ring.Point, 0, n)
	for len(points) < n {
		p := ring.Point(1<<63 + rng.Uint64N(1<<20))
		if !seen[p] {
			seen[p] = true
			points = append(points, p)
		}
	}
	r, err := ring.New(points)
	if err != nil {
		t.Fatal(err)
	}
	return NewOracle(r)
}

// FuzzOracleLaneWarm: after Warm, the oracle lane's H must answer every
// point as Oracle.H and ring.Successor do and charge what Oracle.H
// charges — asked in the warmed order, with skips and repeats, or for
// points never warmed — and Warm itself must charge nothing. The lane
// must answer the next warmed point from its buffer and nothing else,
// which the test follows with a model of the buffer's position.
func FuzzOracleLaneWarm(f *testing.F) {
	for kind := byte(0); kind < 3; kind++ {
		f.Add(kind, uint64(1), []byte{4 + 5*7, 0, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add(kind, uint64(977), []byte{4 + 5*7, 0, 1, 2, 0, 3, 0, 1, 1, 4 + 5*2, 0, 0, 0, 3})
		f.Add(kind, uint64(2025), []byte{3, 4 + 5*10, 2, 2, 0, 0, 4 + 5*3, 1, 0, 4, 0})
	}
	f.Fuzz(func(t *testing.T, kind byte, seed uint64, ops []byte) {
		o := warmRing(t, kind, seed)
		lane, ok := o.Lane()
		if !ok {
			t.Fatal("oracle offers no lane")
		}
		l := lane.(*oracleLane)
		rng := rand.New(rand.NewPCG(seed, 7))
		// point draws uniformly or next to a peer point, so exact hits,
		// wraps and empty buckets all come up.
		point := func() ring.Point {
			if rng.IntN(2) == 0 {
				return ring.Point(rng.Uint64())
			}
			return o.Ring().At(rng.IntN(o.Size())) + ring.Point(rng.IntN(3)) - 1
		}
		var warmed []ring.Point // the points the buffer holds
		next := 0               // the model's buffer position
		last := point()
		cost := func(do func()) simnet.Cost {
			before := o.Meter().Snapshot()
			do()
			lane.Flush()
			return o.Meter().Snapshot().Sub(before)
		}
		for _, op := range ops {
			x := point()
			switch op % 5 {
			case 0: // in order
				if next < len(warmed) {
					x = warmed[next]
				}
			case 1: // repeat
				x = last
			case 2: // skip one
				if next+1 < len(warmed) {
					x = warmed[next+1]
				}
			case 4: // warm 1 to 11 fresh points; the lane keeps at most 8
				xs := make([]ring.Point, 1+int(op/5)%11)
				for i := range xs {
					xs[i] = point()
				}
				if c := cost(func() { l.Warm(xs) }); c != (simnet.Cost{}) {
					t.Fatalf("Warm of %d points charged %+v", len(xs), c)
				}
				warmed, next = xs[:min(len(xs), warmWindow)], 0
				continue
			}
			last = x
			var want Peer
			shared := cost(func() { want, _ = o.H(x) })
			var got Peer
			var err error
			if c := cost(func() { got, err = l.H(x) }); c != shared || err != nil {
				t.Fatalf("lane H(%v) charged %+v (err %v), Oracle.H %+v", x, c, err, shared)
			}
			if ref := o.PeerByIndex(o.Ring().Successor(x)); got != want || got != ref {
				t.Fatalf("lane H(%v) = %+v, Oracle.H %+v, ring.Successor %+v", x, got, want, ref)
			}
			if next < len(warmed) && warmed[next] == x {
				next++
			}
			if l.next != next || l.n != len(warmed) {
				t.Fatalf("after H(%v) the lane's buffer is at %d of %d, want %d of %d", x, l.next, l.n, next, len(warmed))
			}
		}
	})
}

// BenchmarkOracleLaneH times the oracle lane's H on a 10⁶-point ring
// over uniform points, plain and with each window of eight warmed
// first — the layer under an exclusive fork's trials. Each lookup is
// followed by a walk of nine Next steps, about what a trial walks
// (oracle-batch-1m: 80.8 steps over 9.0 trials a sample): with nothing
// between them, plain lookups overlap their cache misses by themselves,
// and the number would not show what warming buys a sampler. An op is
// 4 096 lookups; ns/trial is the number to read.
func BenchmarkOracleLaneH(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	o, err := GenerateOracle(rng, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]ring.Point, 1<<16)
	for i := range xs {
		xs[i] = ring.Point(rng.Uint64())
	}
	const perOp, steps = 1 << 12, 9
	for _, warm := range []bool{false, true} {
		name := "plain"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			lane, _ := o.Lane()
			l := lane.(*oracleLane)
			var sink int
			at := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < perOp; j += warmWindow {
					window := xs[at : at+warmWindow]
					at = (at + warmWindow) % len(xs)
					if warm {
						l.Warm(window)
					}
					for _, x := range window {
						p, _ := l.H(x)
						for s := 0; s < steps; s++ {
							p, _ = l.Next(p)
						}
						sink += p.Owner
					}
				}
			}
			lane.Flush()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/trial")
			if sink == -1 {
				b.Log(sink)
			}
		})
	}
}
