// Package ring implements exact fixed-point arithmetic on the DHT unit
// circle used throughout the King–Saia random-peer-selection reproduction.
//
// The paper scales the DHT key space to the real interval (0,1] and treats
// it as a circle of unit circumference. We instead represent the circle as
// the integers modulo 2^64: a Point is a uint64, the circle has exactly
// 2^64 "units", and the clockwise distance from x to y is (y-x) mod 2^64.
// Integer arithmetic makes every measure-theoretic statement in the paper
// (interval lengths, per-peer assigned measure, arc statistics) exactly
// checkable with no floating-point drift. Floating point appears only at
// presentation boundaries via Float and PointOf.
package ring

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// Point is a position on the unit circle, measured in 2^64ths of the
// circumference. Clockwise corresponds to increasing values (mod 2^64).
type Point uint64

// UnitsPerCircle is the number of discrete positions on the circle as a
// float64 (2^64). The exact integer value does not fit in a uint64.
const UnitsPerCircle = float64(1<<63) * 2

// Distance returns the clockwise distance from x to y in circle units.
// Distance(x, x) == 0. This is the paper's d(x, y) scaled by 2^64.
func Distance(x, y Point) uint64 {
	return uint64(y) - uint64(x)
}

// Add returns the point d units clockwise from p.
func Add(p Point, d uint64) Point {
	return Point(uint64(p) + d)
}

// Sub returns the point d units counterclockwise from p.
func Sub(p Point, d uint64) Point {
	return Point(uint64(p) - d)
}

// Float maps p to the half-open real interval [0, 1).
func (p Point) Float() float64 {
	return float64(uint64(p)) / UnitsPerCircle
}

// PointOf maps a real number to the nearest point, reducing mod 1.0 so any
// finite value is accepted.
func PointOf(f float64) Point {
	f = f - math.Floor(f)
	u := f * UnitsPerCircle
	if u >= UnitsPerCircle {
		return 0
	}
	return Point(uint64(u))
}

// String renders the point both as raw units and as a fraction of the
// circle, which is the form used in the paper.
func (p Point) String() string {
	return fmt.Sprintf("%.6f", p.Float())
}

// FracToUnits converts a fraction of the circle (such as the paper's
// lambda = 1/(7*nhat)) to a whole number of circle units, rounding down.
// Fractions of 1.0 or more saturate to the maximum representable length.
func FracToUnits(frac float64) uint64 {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return math.MaxUint64
	}
	u := frac * UnitsPerCircle
	if u >= UnitsPerCircle {
		return math.MaxUint64
	}
	return uint64(u)
}

// UnitsToFrac converts a length in circle units to a fraction of the
// circle circumference.
func UnitsToFrac(units uint64) float64 {
	return float64(units) / UnitsPerCircle
}

// Ring is an immutable set of distinct peer points in sorted (clockwise)
// order. Index i identifies the peer owning point i; indices are the
// stable peer identities used by the samplers' tallies and by the exact
// assignment analyzer.
//
// Beside the points a ring keeps a bucket directory for Successor and
// Rank: the circle is cut into 2^k equal buckets by a point's top k
// bits, and dir[b] is the rank of the first point whose top k bits are
// >= b (dir[2^k] = n). k = bits.Len(n/4) is the smallest k with
// 2^k > n/4, so a uniform ring holds 2 to 4 points a bucket on average
// and the search inside one takes two or three probes. Fewer buckets would
// lengthen that search; more would grow the directory, which at
// 4·(2^k+1) bytes is already 1–2 bytes a point (1 MB at n = 10^6)
// beside the points' 8.
//
// The zero value is an empty ring; use New or Generate to build one.
type Ring struct {
	points []Point
	dir    []uint32
	shift  uint // 64 - k: a point's bucket is its value >> shift
}

// New builds a ring from the given peer points. The input is copied,
// sorted clockwise from zero, and must contain no duplicates. It rejects
// more than math.MaxUint32 points, the largest rank the bucket
// directory stores.
func New(points []Point) (*Ring, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("ring: need at least one peer point")
	}
	if uint64(len(points)) > math.MaxUint32 {
		return nil, fmt.Errorf("ring: %d peer points exceed the limit of %d", len(points), uint64(math.MaxUint32))
	}
	ps := slices.Clone(points)
	r := sortRing(ps)
	if i := firstRepeat(ps); i > 0 {
		return nil, fmt.Errorf("ring: duplicate peer point %d", uint64(ps[i]))
	}
	return r, nil
}

// fromSorted wraps strictly increasing points (kept, not copied) and
// builds their bucket directory: one counting pass over the points'
// top bits and a prefix sum. New and Generate reach it through
// sortRing (sort.go) on input it does not radix-sort.
func fromSorted(ps []Point) *Ring {
	k := bits.Len(uint(len(ps) / 4))
	shift := uint(64 - k)
	dir := make([]uint32, 1<<k+1)
	for _, p := range ps {
		dir[uint64(p)>>shift+1]++
	}
	for b := 1; b < len(dir); b++ {
		dir[b] += dir[b-1]
	}
	return &Ring{points: ps, dir: dir, shift: shift}
}

// Generate places n peers independently and uniformly at random on the
// circle, matching the paper's random-oracle placement assumption, and
// returns the resulting ring. Collisions (probability about n^2/2^65)
// are re-drawn so the result always has exactly n distinct points: the
// ring holds the first n distinct values of rng's stream, and Generate
// consumes exactly the draws it took to see them, no more.
func Generate(rng *rand.Rand, n int) (*Ring, error) {
	if n <= 0 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("ring: peer count must be in [1, %d], got %d", uint64(math.MaxUint32), n)
	}
	points := make([]Point, n)
	for i := range points {
		points[i] = Point(rng.Uint64())
	}
	r := sortRing(points)
	if firstRepeat(points) == 0 {
		return r, nil
	}
	points = slices.Compact(points)
	for len(points) < n {
		p := Point(rng.Uint64())
		if i, dup := slices.BinarySearch(points, p); !dup {
			points = slices.Insert(points, i, p)
		}
	}
	return fromSorted(points), nil
}

// Len returns the number of peers.
func (r *Ring) Len() int { return len(r.points) }

// At returns the peer point at index i.
func (r *Ring) At(i int) Point { return r.points[i] }

// Points returns a copy of the sorted peer points.
func (r *Ring) Points() []Point {
	out := make([]Point, len(r.points))
	copy(out, r.points)
	return out
}

// Sorted returns the sorted peer points without copying them: the
// ring's own immutable array, which callers must not modify.
func (r *Ring) Sorted() []Point { return r.points }

// Rank returns the index p occupies in the ring, or would occupy were
// it inserted, and whether p is present: Successor's search without the
// wrap. It is the one lookup IndexOf, Insert and Remove share with the
// oracle's h and the overlays' ID↔slot bridge, which keeps a member's
// slot at its rank.
func (r *Ring) Rank(p Point) (int, bool) {
	i := r.Successor(p)
	if i == 0 && len(r.points) > 0 && r.points[0] < p {
		return len(r.points), false // wrapped: p is past the largest point
	}
	return i, i < len(r.points) && r.points[i] == p
}

// Insert returns a ring equal to r with p added and p's index in it;
// r itself is never modified (copy-on-write). If p is present already
// it returns r, p's index and false. The splice and the new directory
// take one O(n) pass with no sort.
func (r *Ring) Insert(p Point) (*Ring, int, bool) {
	i, found := r.Rank(p)
	if found {
		return r, i, false
	}
	ps := make([]Point, len(r.points)+1)
	copy(ps, r.points[:i])
	ps[i] = p
	copy(ps[i+1:], r.points[i:])
	return fromSorted(ps), i, true
}

// Remove returns a ring equal to r without p and the index p had
// (copy-on-write, like Insert). If p is absent it returns r, the index
// p would take and false.
func (r *Ring) Remove(p Point) (*Ring, int, bool) {
	i, found := r.Rank(p)
	if !found {
		return r, i, false
	}
	ps := make([]Point, len(r.points)-1)
	copy(ps, r.points[:i])
	copy(ps[i:], r.points[i+1:])
	return fromSorted(ps), i, true
}

// Successor returns the index of the peer whose point is closest in
// clockwise distance to x. This is the paper's h(x): if x coincides with
// a peer point the peer at x itself is returned (distance zero).
//
// Every h lookup of every sampler lands here, and every Rank. The
// bucket directory narrows the search to the points sharing x's top k
// bits, which hold the answer unless x is past all of them, when the
// answer is the bucket's end: the first point of a later bucket, or n,
// which wraps to 0. A binary search over that range finishes the job,
// so a lookup is O(1) expected on a uniform ring and never worse than
// O(log n), even when every point shares one bucket. (A shift by 64 is
// 0 in Go, so a one-bucket ring's k = 0 needs no case of its own.) The
// body stays within the compiler's inlining budget, so h pays no call.
func (r *Ring) Successor(x Point) int {
	if len(r.dir) == 0 {
		return 0 // the zero-value ring
	}
	b := uint64(x) >> r.shift
	lo, hi := int(r.dir[b]), int(r.dir[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(r.points) {
		return 0 // wrapped past the largest point
	}
	return lo
}

// NextIndex returns the index of the peer immediately clockwise of peer i,
// for i in [0, Len()). This is the paper's next(p). It compares instead
// of taking a remainder: the oracle's walk calls it on every step.
func (r *Ring) NextIndex(i int) int {
	if i+1 == len(r.points) {
		return 0
	}
	return i + 1
}

// PrevIndex returns the index of the peer immediately counterclockwise of
// peer i, for i in [0, Len()).
func (r *Ring) PrevIndex(i int) int {
	if i == 0 {
		return len(r.points) - 1
	}
	return i - 1
}

// Arc returns the clockwise distance from peer i's point to its
// successor's point: the length of the (maximally peerless) interval
// anchored counterclockwise at peer i. For a single-peer ring the "arc"
// wraps the whole circle, which is not representable; it saturates to
// MaxUint64 (one unit short of the full circle).
func (r *Ring) Arc(i int) uint64 {
	if len(r.points) == 1 {
		return math.MaxUint64
	}
	return Distance(r.points[i], r.points[r.NextIndex(i)])
}

// IndexOf returns the index owning point p, or -1 if no peer sits at p.
func (r *Ring) IndexOf(p Point) int {
	if i, ok := r.Rank(p); ok {
		return i
	}
	return -1
}

// MinArc returns the shortest arc length and the index of its
// counterclockwise endpoint.
func (r *Ring) MinArc() (length uint64, index int) {
	length = math.MaxUint64
	for i := range r.points {
		if a := r.Arc(i); a < length {
			length, index = a, i
		}
	}
	return length, index
}

// MaxArc returns the longest arc length and the index of its
// counterclockwise endpoint.
func (r *Ring) MaxArc() (length uint64, index int) {
	for i := range r.points {
		if a := r.Arc(i); a >= length {
			length, index = a, i
		}
	}
	return length, index
}

// TotalArc returns the sum of all arcs. For rings of two or more peers the
// arcs tile the circle, so the sum is 2^64 which wraps to zero; TotalArc
// is exposed for exactness checks in tests.
func (r *Ring) TotalArc() uint64 {
	var sum uint64
	for i := range r.points {
		sum += r.Arc(i)
	}
	return sum
}
