package ring

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// successorRef is Successor before the bucket directory: one binary
// search over every point.
func successorRef(points []Point, x Point) int {
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if points[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(points) {
		return 0
	}
	return lo
}

// placements are point layouts of n distinct points, uniform and the
// ones that defeat the directory.
var placements = []struct {
	name  string
	build func(rng *rand.Rand, n int) []Point
}{
	{"uniform", func(rng *rand.Rand, n int) []Point {
		r, err := Generate(rng, n)
		if err != nil {
			panic(err)
		}
		return r.Points()
	}},
	{"one-bucket", func(rng *rand.Rand, n int) []Point {
		base := rng.Uint64() >> 1
		ps := make([]Point, n)
		for i := range ps {
			ps[i] = Point(base + uint64(i))
		}
		return ps
	}},
	{"near-max", func(_ *rand.Rand, n int) []Point {
		ps := make([]Point, n)
		for i := range ps {
			ps[i] = Point(math.MaxUint64 - uint64(i))
		}
		return ps
	}},
	{"evenly-spaced", func(_ *rand.Rand, n int) []Point {
		ps := make([]Point, n)
		step := math.MaxUint64/uint64(n) + 1
		for i := range ps {
			ps[i] = Point(uint64(i) * step)
		}
		return ps
	}},
	// 2^(64i/n) + i: crowded at the origin, sparse near the top.
	{"geometric", func(_ *rand.Rand, n int) []Point {
		ps := make([]Point, n)
		for i := range ps {
			ps[i] = Point(uint64(math.Exp2(64*float64(i)/float64(n))) + uint64(i))
		}
		return ps
	}},
}

// checkSuccessor compares Successor with successorRef at x, and IndexOf
// with the same search.
func checkSuccessor(t *testing.T, r *Ring, x Point) {
	t.Helper()
	want := successorRef(r.points, x)
	if got := r.Successor(x); got != want {
		t.Fatalf("n=%d: Successor(%d) = %d, binary search %d", r.Len(), uint64(x), got, want)
	}
	wantIdx := -1
	if r.points[want] == x {
		wantIdx = want
	}
	if got := r.IndexOf(x); got != wantIdx {
		t.Fatalf("n=%d: IndexOf(%d) = %d, want %d", r.Len(), uint64(x), got, wantIdx)
	}
}

// probeAll checks every point, its neighbours, both ends of the circle
// and random values.
func probeAll(t *testing.T, r *Ring, rng *rand.Rand) {
	t.Helper()
	for _, p := range r.points {
		checkSuccessor(t, r, p)
		checkSuccessor(t, r, p-1)
		checkSuccessor(t, r, p+1)
	}
	checkSuccessor(t, r, 0)
	checkSuccessor(t, r, math.MaxUint64)
	for range 2000 {
		checkSuccessor(t, r, Point(rng.Uint64()))
	}
}

func TestSuccessorMatchesBinarySearch(t *testing.T) {
	t.Parallel()
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 1 << 16}
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(11, 13))
			for _, n := range sizes {
				r, err := New(pl.build(rng, n))
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				probeAll(t, r, rng)
			}
		})
	}
}

func TestZeroRing(t *testing.T) {
	t.Parallel()
	var r Ring
	for _, x := range []Point{0, 1, 1 << 63, math.MaxUint64} {
		if got := r.Successor(x); got != 0 {
			t.Errorf("zero Ring: Successor(%d) = %d, want 0", uint64(x), got)
		}
		if got := r.IndexOf(x); got != -1 {
			t.Errorf("zero Ring: IndexOf(%d) = %d, want -1", uint64(x), got)
		}
	}
}

func FuzzSuccessorMatchesBinarySearch(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint64(0), uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEF"), uint64(math.MaxUint64), uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEF"), uint64(1<<40), uint8(30))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint64(1<<63), uint8(63))
	f.Fuzz(func(t *testing.T, raw []byte, probe uint64, shift uint8) {
		// Eight bytes a point, shifted right to crowd them toward the
		// origin when the fuzzer asks.
		var ps []Point
		for len(raw) >= 8 {
			ps = append(ps, Point(binary.LittleEndian.Uint64(raw)>>(shift%64)))
			raw = raw[8:]
		}
		slices.Sort(ps)
		ps = slices.Compact(ps)
		if len(ps) == 0 {
			return
		}
		r, err := New(ps)
		if err != nil {
			t.Fatal(err)
		}
		checkSuccessor(t, r, Point(probe))
		checkSuccessor(t, r, 0)
		checkSuccessor(t, r, math.MaxUint64)
		for _, p := range ps {
			checkSuccessor(t, r, p)
			checkSuccessor(t, r, p-1)
			checkSuccessor(t, r, p+1)
		}
	})
}

// generateMapRef is Generate before it sorted its draws: a map of the
// values seen, redrawing until n are distinct.
func generateMapRef(rng *rand.Rand, n int) []Point {
	seen := make(map[Point]struct{}, n)
	points := make([]Point, 0, n)
	for len(points) < n {
		p := Point(rng.Uint64())
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		points = append(points, p)
	}
	slices.Sort(points)
	return points
}

// repeatSource yields only m distinct values, spread over the circle by
// an odd multiplier (a bijection mod 2^64), so Generate meets collisions
// at every size.
type repeatSource struct {
	pcg *rand.PCG
	m   uint64
}

func (s *repeatSource) Uint64() uint64 { return (s.pcg.Uint64() % s.m) * 0x9E3779B97F4A7C15 }

func TestGenerateMatchesMapReference(t *testing.T) {
	t.Parallel()
	type source func(seed uint64, n int) rand.Source
	sources := map[string]source{
		"pcg": func(seed uint64, _ int) rand.Source { return rand.NewPCG(seed, 1) },
		"repeating": func(seed uint64, n int) rand.Source {
			return &repeatSource{pcg: rand.NewPCG(seed, 1), m: uint64(n + n/2 + 1)}
		},
	}
	for name, src := range sources {
		for _, n := range []int{1, 2, 7, 100, 1000, 4096} {
			seed := uint64(n)
			refRng := rand.New(src(seed, n))
			want := generateMapRef(refRng, n)
			rng := rand.New(src(seed, n))
			r, err := Generate(rng, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !slices.Equal(r.points, want) {
				t.Fatalf("%s n=%d: Generate's points differ from the map reference", name, n)
			}
			if got, want := rng.Uint64(), refRng.Uint64(); got != want {
				t.Fatalf("%s n=%d: next draw %d, reference %d: Generate consumed a different number of draws", name, n, got, want)
			}
			probeAll(t, r, rand.New(rand.NewPCG(seed, 2)))
		}
	}
}
