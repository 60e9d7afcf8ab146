package ring

import (
	"math/bits"
	"slices"

	"github.com/dht-sampling/randompeer/internal/parallel"
)

// Building a ring. A ring's points are sorted and its directory counts
// them by their top k bits, so the directory is exactly the histogram
// a radix sort on those k bits builds: sorting by them and indexing by
// them are one job. On the random-oracle placement the paper assumes
// (and Generate reproduces) the points are uniform on the circle, and
// sortRing sorts them in linear expected time:
//
//   - a scatter pass on the top h = ⌈k/2⌉ bits, the high digit, from
//     the points into one scratch buffer;
//   - then, for each high bucket on its own, a counting pass on the
//     next k-h bits, whose prefix sums are that bucket's stretch of the
//     directory, and a scatter back into the points. High buckets share
//     nothing, so they are sharded over internal/parallel;
//   - then an insertion sort inside each directory bucket, which holds
//     2 to 4 points on average.
//
// The sorted order is unique, so the ring is bit-identical to
// fromSorted's over slices.Sort's output at any GOMAXPROCS. Input that
// is not uniform costs no more than a comparison sort: a directory
// bucket of more than insertionMax points finishes with slices.Sort,
// and a high digit that puts most of the points in one bucket hands
// the whole job to slices.Sort before anything is scattered.

const (
	// radixMin is the fewest points sortRing radix-sorts; below it
	// slices.Sort is as fast.
	radixMin = 1 << 12
	// insertionMax is the largest directory bucket finished by
	// insertion sort.
	insertionMax = 32
)

// sortRing sorts ps in place and returns the ring over it, directory
// included. It checks nothing for repeats: a caller that may hold them
// scans the sorted points (firstRepeat) and discards the ring.
// Sorted input costs one pass to see that, and fromSorted's.
func sortRing(ps []Point) *Ring {
	n := len(ps)
	if n < radixMin {
		slices.Sort(ps)
		return fromSorted(ps)
	}
	if slices.IsSorted(ps) {
		return fromSorted(ps)
	}
	k := bits.Len(uint(n / 4))
	hiBits := (k + 1) / 2
	loBits := uint(k - hiBits)
	hiShift := uint(64 - hiBits)

	// start[d] is the first rank of high bucket d; start[1<<hiBits] = n.
	start := make([]int, 1<<hiBits+1)
	for _, p := range ps {
		start[uint64(p)>>hiShift+1]++
	}
	if slices.Max(start) > n/2 {
		slices.Sort(ps)
		return fromSorted(ps)
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	scratch := make([]Point, n)
	next := slices.Clone(start[:1<<hiBits])
	for _, p := range ps {
		d := uint64(p) >> hiShift
		scratch[next[d]] = p
		next[d]++
	}

	shift := uint(64 - k)
	r := &Ring{points: ps, dir: make([]uint32, 1<<k+1), shift: shift}
	r.dir[1<<k] = uint32(n)
	loMask := uint64(1)<<loBits - 1
	high := 1 << hiBits
	parallel.Shards(high, parallel.Workers(high), func(lo, hi int) {
		for d := lo; d < hi; d++ {
			s, e := start[d], start[d+1]
			in := scratch[s:e]
			dir := r.dir[d<<loBits : (d+1)<<loBits]
			for _, p := range in {
				dir[uint64(p)>>shift&loMask]++
			}
			rank := uint32(s)
			for j, c := range dir {
				dir[j] = rank
				rank += c
			}
			for _, p := range in {
				j := uint64(p) >> shift & loMask
				ps[dir[j]] = p
				dir[j]++
			}
			// Each entry now holds its bucket's end, the next one's
			// start: shift them back.
			copy(dir[1:], dir)
			dir[0] = uint32(s)
			for j := range dir {
				end := e
				if j+1 < len(dir) {
					end = int(dir[j+1])
				}
				finishBucket(ps[dir[j]:end])
			}
		}
	})
	return r
}

// finishBucket sorts the points of one directory bucket: by insertion
// when there are few, as there are on a uniform ring.
func finishBucket(b []Point) {
	if len(b) > insertionMax {
		slices.Sort(b)
		return
	}
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i
		for ; j > 0 && b[j-1] > v; j-- {
			b[j] = b[j-1]
		}
		b[j] = v
	}
}

// firstRepeat returns the first index i > 0 of sorted ps with
// ps[i] == ps[i-1], or 0 when the points are distinct.
func firstRepeat(ps []Point) int {
	for i := 1; i < len(ps); i++ {
		if ps[i] == ps[i-1] {
			return i
		}
	}
	return 0
}
