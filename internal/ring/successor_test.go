package ring

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
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

// checkSuccessor compares Successor with successorRef at x, and Rank
// and IndexOf with slices.BinarySearch.
func checkSuccessor(t *testing.T, r *Ring, x Point) {
	t.Helper()
	want := successorRef(r.points, x)
	if got := r.Successor(x); got != want {
		t.Fatalf("n=%d: Successor(%d) = %d, binary search %d", r.Len(), uint64(x), got, want)
	}
	rank, found := slices.BinarySearch(r.points, x)
	if gotRank, gotFound := r.Rank(x); gotRank != rank || gotFound != found {
		t.Fatalf("n=%d: Rank(%d) = %d, %v; binary search %d, %v", r.Len(), uint64(x), gotRank, gotFound, rank, found)
	}
	wantIdx := -1
	if found {
		wantIdx = rank
	}
	if got := r.IndexOf(x); got != wantIdx {
		t.Fatalf("n=%d: IndexOf(%d) = %d, want %d", r.Len(), uint64(x), got, wantIdx)
	}
}

// checkRing holds r to want, the points it must hold, and to the
// directory's definition — k = bits.Len(n/4) and dir[b] the number of
// points whose top k bits are below b — then probes every point, its
// neighbours and both ends of the circle.
func checkRing(t *testing.T, r *Ring, want []Point) {
	t.Helper()
	if !slices.Equal(r.points, want) {
		t.Fatalf("ring holds %v, want %v", r.points, want)
	}
	k := bits.Len(uint(len(want) / 4))
	if r.shift != uint(64-k) || len(r.dir) != 1<<k+1 {
		t.Fatalf("n=%d: shift %d and %d directory entries, want k = %d", len(want), r.shift, len(r.dir), k)
	}
	for b := range r.dir {
		below := sort.Search(len(want), func(i int) bool { return uint64(want[i])>>r.shift >= uint64(b) })
		if r.dir[b] != uint32(below) {
			t.Fatalf("n=%d: dir[%d] = %d, want %d", len(want), b, r.dir[b], below)
		}
	}
	for _, p := range append([]Point{0, math.MaxUint64}, want...) {
		checkSuccessor(t, r, p)
		checkSuccessor(t, r, p-1)
		checkSuccessor(t, r, p+1)
	}
}

// checkInsertRemove holds the copy-on-write Insert and Remove of p to
// slices.Insert and slices.Delete on a copy, and r to what it held.
func checkInsertRemove(t *testing.T, r *Ring, p Point) {
	t.Helper()
	before := slices.Clone(r.points)
	i, found := slices.BinarySearch(before, p)
	ins, at, added := r.Insert(p)
	if at != i || added == found {
		t.Fatalf("Insert(%d) = index %d, added %v; binary search %d, present %v", uint64(p), at, added, i, found)
	}
	want := before
	if !found {
		want = slices.Insert(slices.Clone(before), i, p)
	}
	checkRing(t, ins, want)
	rem, at, removed := r.Remove(p)
	if at != i || removed != found {
		t.Fatalf("Remove(%d) = index %d, removed %v; binary search %d, present %v", uint64(p), at, removed, i, found)
	}
	want = before
	if found {
		want = slices.Delete(slices.Clone(before), i, i+1)
	}
	checkRing(t, rem, want)
	if !slices.Equal(r.points, before) {
		t.Fatalf("Insert/Remove(%d) modified the ring they copied", uint64(p))
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
		checkRing(t, r, ps)
		checkInsertRemove(t, r, Point(probe))
		checkInsertRemove(t, r, ps[probe%uint64(len(ps))])
	})
}

// TestRankEdgeRings holds Rank, Successor, IndexOf and the copy-on-write
// Insert/Remove to the binary search on the rings that stress the
// directory: one member, the two ends of the circle, adjacent points,
// every point in one bucket, and a ring grown from empty and shrunk back
// one point at a time, which crosses every resize of the directory (n/4
// reaching a power of two) both ways.
func TestRankEdgeRings(t *testing.T) {
	t.Parallel()
	const top = math.MaxUint64
	oneBucket := make([]Point, 64)
	for i := range oneBucket {
		oneBucket[i] = Point(1<<62 + uint64(i)*3)
	}
	for _, ps := range [][]Point{
		{5}, {0}, {top},
		{0, top},
		{0, 1, 2}, {7, 8}, {top - 2, top - 1, top},
		{0, 1, top - 1, top},
		oneBucket,
	} {
		r, err := New(ps)
		if err != nil {
			t.Fatal(err)
		}
		checkRing(t, r, ps)
		for _, p := range []Point{0, 1, 3, 5, 6, 9, 1 << 62, 1<<62 + 1, 1<<62 + 190, 1<<62 + 192, top - 1, top} {
			checkInsertRemove(t, r, p)
		}
	}

	rng := rand.New(rand.NewPCG(3, 5))
	r := new(Ring)
	var want []Point
	for r.Len() < 70 {
		p := Point(rng.Uint64())
		next, i, added := r.Insert(p)
		if !added {
			continue
		}
		want = slices.Insert(want, i, p)
		checkRing(t, next, want)
		r = next
	}
	for r.Len() > 0 {
		p := want[rng.IntN(len(want))]
		next, i, removed := r.Remove(p)
		if !removed {
			t.Fatalf("Remove(%d) of a member reported absent", uint64(p))
		}
		want = slices.Delete(want, i, i+1)
		checkRing(t, next, want)
		r = next
	}
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
		for _, n := range []int{1, 2, 7, 100, 1000, 4096, radixMin - 1, radixMin + 1, 5 * radixMin} {
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
