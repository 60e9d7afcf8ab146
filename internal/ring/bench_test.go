package ring

import (
	"math/rand/v2"
	"testing"
)

func benchRing(b *testing.B, n int) *Ring {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 1))
	r, err := Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchSizes are the ring sizes of the Successor and Generate
// benchmarks: 2^16, and the 10^6 points of the oracle batch workload.
var benchSizes = []struct {
	name string
	n    int
}{{"n=2^16", 1 << 16}, {"n=1e6", 1_000_000}}

// successorSink keeps BenchmarkSuccessor's lookups from being optimised
// away.
var successorSink int

func BenchmarkSuccessor(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			r := benchRing(b, sz.n)
			rng := rand.New(rand.NewPCG(2, 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				successorSink += r.Successor(Point(rng.Uint64()))
			}
		})
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 3))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(rng, sz.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCountIn(b *testing.B) {
	r := benchRing(b, 4096)
	rng := rand.New(rand.NewPCG(4, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := Point(rng.Uint64())
		_ = r.CountIn(NewInterval(start, Add(start, 1<<52)))
	}
}

func BenchmarkS128Arithmetic(b *testing.B) {
	s := S128Of(1 << 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = s.AddUint(uint64(i)).SubUint(uint64(i) / 2)
		if s.IsNeg() {
			s = S128Of(1 << 60)
		}
	}
}
