package kademlia

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// shortEntry is one known, non-failed identifier of a running lookup.
type shortEntry struct {
	id ring.Point
	// queried: the contact answered a FIND_NODE, is in this round's wave,
	// or is the initiator itself; otherwise it is still a candidate.
	queried bool
}

// lookupScratch is the per-lookup working set, reused across calls via
// a free-list. short is the shortlist, every known identifier that has
// not failed, in two parts:
//   - the window short[:k]: the k XOR-closest of them, sorted by XOR
//     distance to the target (the metric is injective, so the order is
//     total). It is all the wave and convergence rules read;
//   - the tail short[k:]: the rest, unordered, every one farther than
//     the window's last entry. Each keeps its queried flag, so an entry
//     pushed out of the window and later pulled back in (a window entry
//     failed) is not queried twice.
//
// seen holds every identifier learned or failed, the initiator
// included, so that an id a later reply re-advertises is placed at
// most once and a failed one is never queried again. self is the
// initiator's slot.
type lookupScratch struct {
	self   uint32
	target ring.Point
	k      int
	short  []shortEntry
	seen   distSet
	seed   []ring.Point
	wave   []ring.Point
}

var lookupScratchPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// reset starts a lookup from the initiator (slot self, id from) toward
// target with window k: the initiator is the only entry, and queried.
func (ls *lookupScratch) reset(self uint32, from, target ring.Point, k int) {
	ls.self, ls.target, ls.k = self, target, k
	ls.short = append(ls.short[:0], shortEntry{id: from, queried: true})
	ls.seen.reset()
	ls.seen.add(xorDist(target, from))
}

// dist returns entry i's XOR distance to the target.
func (ls *lookupScratch) dist(i int) uint64 { return xorDist(ls.target, ls.short[i].id) }

// learn adds id to the shortlist as a candidate unless it was learned
// or failed before. Replies come in no order — the handler answers with
// a set, and a Byzantine or remote node may add duplicates, run longer
// than k or name the initiator or a failed contact — so every id is
// placed on its own, and the window after a reply is the same whatever
// order its ids came in. An
// id farther than the window's last entry goes to the tail; a closer
// one is inserted into the window, whose last entry moves to the tail.
func (ls *lookupScratch) learn(id ring.Point) {
	d := xorDist(ls.target, id)
	if !ls.seen.add(d) {
		return
	}
	e := shortEntry{id: id}
	w := min(len(ls.short), ls.k)
	if w < ls.k {
		ls.short = append(ls.short, e)
	} else {
		if d > ls.dist(w-1) {
			ls.short = append(ls.short, e)
			return
		}
		ls.short = append(ls.short, ls.short[w-1])
		w--
	}
	lo, hi := 0, w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls.dist(mid) < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(ls.short[lo+1:w+1], ls.short[lo:w])
	ls.short[lo] = e
}

// remove delists id, which must be on the shortlist; it stays in seen.
// A window entry's place is refilled from the closest tail entry: a
// linear scan, paid only on failures.
func (ls *lookupScratch) remove(id ring.Point) {
	i := slices.IndexFunc(ls.short, func(e shortEntry) bool { return e.id == id })
	last := len(ls.short) - 1
	if i < ls.k {
		if last < ls.k {
			ls.short = slices.Delete(ls.short, i, i+1)
			return
		}
		copy(ls.short[i:ls.k-1], ls.short[i+1:ls.k])
		j := ls.k
		for t := j + 1; t <= last; t++ {
			if ls.dist(t) < ls.dist(j) {
				j = t
			}
		}
		ls.short[ls.k-1] = ls.short[j]
		i = j
	}
	ls.short[i] = ls.short[last]
	ls.short = ls.short[:last]
}

// closest appends the up-to-k XOR-closest queried contacts to dst,
// best first: LookupResult's Closest. It sorts the tail first, which
// only the cold paths that read past the window pay.
func (ls *lookupScratch) closest(dst []ring.Point) []ring.Point {
	k := ls.k
	if len(ls.short) > ls.k {
		slices.SortFunc(ls.short[ls.k:], func(a, b shortEntry) int {
			return cmp.Compare(xorDist(ls.target, a.id), xorDist(ls.target, b.id))
		})
	}
	for _, e := range ls.short {
		if k == 0 {
			break
		}
		if e.queried {
			dst = append(dst, e.id)
			k--
		}
	}
	return dst
}

// distSet is a lookup's set of identifiers, keyed by their XOR distance
// d to the target (injective, so one key per id): open addressing with
// linear probing over a power-of-two table, 0 marking an empty slot.
// Distance 0, the target itself, has no slot and gets the zero flag.
// The table doubles at half load and keeps its size across lookups.
type distSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	used  int
	zero  bool
}

// distSetMinSlots is the first table size: a lookup at the repository
// benchmark's size learns ≈ 80 ids, so the table settles at 256 slots.
const distSetMinSlots = 64

// reset empties the set, keeping its table.
func (s *distSet) reset() {
	clear(s.slots)
	s.used, s.zero = 0, false
}

// add inserts d and reports whether it was absent.
func (s *distSet) add(d uint64) bool {
	if d == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if 2*(s.used+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := int(d * 0x9e3779b97f4a7c15 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case d:
			return false
		case 0:
			s.slots[i] = d
			s.used++
			return true
		}
	}
}

// grow doubles the table (or allocates the first one) and rehashes.
func (s *distSet) grow() {
	old := s.slots
	size := max(2*len(old), distSetMinSlots)
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.Len(uint(size-1)))
	s.used = 0
	for _, d := range old {
		if d != 0 {
			s.add(d)
		}
	}
}
