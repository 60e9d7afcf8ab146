package ring

import (
	"math/rand/v2"
	"slices"
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
// BenchmarkGenerate adds 10^7, the scale record's ring.
var benchSizes = []benchSize{{"n=2^16", 1 << 16}, {"n=1e6", 1_000_000}}

type benchSize struct {
	name string
	n    int
}

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
	for _, sz := range append(benchSizes, benchSize{"n=1e7", 10_000_000}) {
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

// BenchmarkNew builds rings of 10^6 points from uniform input in
// random order, from sorted input, and from input clustered below 2^34,
// which no radix digit spreads; each beside the comparison sort New
// ran before sortRing (newBySort) on the same input.
func BenchmarkNew(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewPCG(5, 5))
	uniform := benchRing(b, n).Points()
	rng.Shuffle(n, func(i, j int) { uniform[i], uniform[j] = uniform[j], uniform[i] })
	sorted := slices.Clone(uniform)
	slices.Sort(sorted)
	clustered := make([]Point, n)
	for i := range clustered {
		clustered[i] = Point(uint64(i)<<14 | rng.Uint64()>>50)
	}
	rng.Shuffle(n, func(i, j int) { clustered[i], clustered[j] = clustered[j], clustered[i] })
	for _, in := range []struct {
		name string
		ps   []Point
	}{{"uniform", uniform}, {"sorted", sorted}, {"clustered", clustered}} {
		for _, build := range []struct {
			suffix string
			new    func([]Point) (*Ring, error)
		}{{"", New}, {"-slices.Sort", newBySort}} {
			b.Run(in.name+build.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := build.new(in.ps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
