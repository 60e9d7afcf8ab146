package ring

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// newBySort is New before sortRing: a comparison sort, a scan for
// repeats and fromSorted's merge pass for the directory.
func newBySort(points []Point) (*Ring, error) {
	ps := slices.Clone(points)
	slices.Sort(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i] == ps[i-1] {
			return nil, fmt.Errorf("ring: duplicate peer point %d", uint64(ps[i]))
		}
	}
	return fromSorted(ps), nil
}

// checkNewMatchesSort holds New(in) to newBySort(in): the same error,
// or the same points, directory and shift; and in to what it was.
func checkNewMatchesSort(t *testing.T, name string, in []Point) {
	t.Helper()
	before := slices.Clone(in)
	got, err := New(in)
	want, wantErr := newBySort(in)
	if !slices.Equal(in, before) {
		t.Fatalf("%s n=%d: New modified its input", name, len(in))
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s n=%d: New error %v, sort finds %v", name, len(in), err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.points, want.points) {
		t.Fatalf("%s n=%d: New's points differ from the sorted input", name, len(in))
	}
	if got.shift != want.shift || !slices.Equal(got.dir, want.dir) {
		t.Fatalf("%s n=%d: New's directory (shift %d, %d entries) differs from fromSorted's (shift %d, %d entries)",
			name, len(in), got.shift, len(got.dir), want.shift, len(want.dir))
	}
}

// shapes are the inputs FuzzNewMatchesSort draws: n points from rng,
// m a width in bits for the clustered shapes.
var shapes = []struct {
	name  string
	build func(rng *rand.Rand, n int, m uint) []Point
}{
	{"uniform", func(rng *rand.Rand, n int, _ uint) []Point { return draw(rng, n, 64) }},
	{"clustered", func(rng *rand.Rand, n int, m uint) []Point { return draw(rng, n, m) }},
	// Half hug 0, half hug 2^64-1.
	{"two-ends", func(rng *rand.Rand, n int, m uint) []Point {
		ps := draw(rng, n, m)
		for i := 0; i < n; i += 2 {
			ps[i] = math.MaxUint64 - ps[i]
		}
		return ps
	}},
	{"sorted", func(rng *rand.Rand, n int, m uint) []Point {
		ps := draw(rng, n, m)
		slices.Sort(ps)
		return ps
	}},
	{"reversed", func(rng *rand.Rand, n int, m uint) []Point {
		ps := draw(rng, n, m)
		slices.Sort(ps)
		slices.Reverse(ps)
		return ps
	}},
	{"one-duplicate", func(rng *rand.Rand, n int, _ uint) []Point {
		ps := draw(rng, n, 64)
		if n > 1 {
			ps[rng.IntN(n)] = ps[rng.IntN(n)]
		}
		return ps
	}},
}

// draw returns n uniform points below 2^m (1 <= m <= 64).
func draw(rng *rand.Rand, n int, m uint) []Point {
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point(rng.Uint64() >> (64 - m))
	}
	return ps
}

// FuzzNewMatchesSort builds rings from fuzzed shapes of up to three
// times radixMin points, either side of the radix sort's threshold,
// and holds each to newBySort. Narrow clusters repeat points, which New
// must refuse with the message the comparison sort's scan gives.
func FuzzNewMatchesSort(f *testing.F) {
	for shape := range shapes {
		f.Add(uint64(shape), uint16(radixMin+1), uint8(shape), uint8(40))
	}
	f.Add(uint64(9), uint16(radixMin-1), uint8(1), uint8(63))
	f.Add(uint64(10), uint16(3*radixMin), uint8(2), uint8(34))
	f.Add(uint64(11), uint16(radixMin), uint8(1), uint8(12))
	f.Add(uint64(12), uint16(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, shape, width uint8) {
		n := int(count) % (3*radixMin + 1)
		sh := shapes[int(shape)%len(shapes)]
		m := uint(width)%64 + 1
		in := sh.build(rand.New(rand.NewPCG(seed, 7)), n, m)
		if n == 0 {
			if _, err := New(in); err == nil {
				t.Fatal("New accepted no points")
			}
			return
		}
		checkNewMatchesSort(t, sh.name, in)
	})
}

// TestNewEdges holds New to newBySort on the inputs at the edges of
// the radix sort: either side of its threshold, every point in one
// directory bucket, directory buckets past insertionMax, both ends of
// the circle and adjacent points (arc 1), each shuffled and sorted.
func TestNewEdges(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(21, 22))
	const n = radixMin + 2 // even: two halves of n/2 keep the radix path
	shift := uint(64 - 10) // k = 10 below the threshold, 11 at it
	type edge struct {
		name string
		ps   []Point
	}
	cases := []edge{
		{"threshold-1", draw(rng, radixMin-1, 64)},
		{"threshold", draw(rng, radixMin, 64)},
		{"threshold+1", draw(rng, radixMin+1, 64)},
	}
	oneBucket := make([]Point, n)
	twoBuckets := make([]Point, n)
	base := rng.Uint64() &^ (1<<shift - 1)
	for i := range oneBucket {
		oneBucket[i] = Point(base + uint64(i)*5)
		// One directory bucket in each half of the circle: no high
		// bucket holds most of the points, every directory bucket in
		// use holds more than insertionMax.
		twoBuckets[i] = Point(uint64(i%2)<<63 + uint64(i))
	}
	ends := draw(rng, n, 64)
	ends[0], ends[n/2] = 0, math.MaxUint64
	adjacent := draw(rng, n, 64)
	for i := 0; i+1 < n; i += 2 {
		adjacent[i+1] = adjacent[i] + 1
	}
	// A pair straddling a directory boundary at every k near the
	// threshold.
	adjacent[0], adjacent[1] = Point(1<<shift-1), Point(1<<shift)
	adjacent[2], adjacent[3] = Point(1<<(shift-1)-1), Point(1<<(shift-1))
	cases = append(cases, edge{"one-bucket", oneBucket}, edge{"two-full-buckets", twoBuckets},
		edge{"ends", ends}, edge{"adjacent", adjacent})
	for _, c := range cases {
		name, ps := c.name, c.ps
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		checkNewMatchesSort(t, name, ps)
		slices.Sort(ps)
		checkNewMatchesSort(t, name+"/sorted", ps)
		slices.Reverse(ps)
		checkNewMatchesSort(t, name+"/reversed", ps)
	}
}
