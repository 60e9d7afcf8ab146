package kademlia

import (
	"math/bits"
	"slices"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// k-buckets over the flat region pool. One region per non-empty bucket
// holds a packed header word (entry count in the low half, replacement
// cache count in the high half), up to k entry slots ordered least-
// recently-seen first (index 0 is the eviction candidate, the tail is
// the freshest), and up to replacementCacheLen cached slots observed
// while the bucket was full. Kademlia's eviction rule — ping the
// least-recently-seen entry and keep it if it answers — requires an
// RPC, so it runs in the maintenance path (Network.RefreshNode), never
// while handling an incoming message.
//
// The reg* functions below are pure operations on one region's words;
// contacts are arena slot references, translated to identifiers by the
// callers (Network.closestLocked and friends) via atomic id loads.

// replacementCacheLen bounds each bucket's replacement cache.
const replacementCacheLen = 4

// maxBucketSize is the largest k a region header can count: the entry
// count has 16 bits.
const maxBucketSize = 0xffff

// regLens unpacks a region's entry and cache counts.
func regLens(reg []uint32) (ents, cached int) {
	return int(reg[0] & 0xffff), int(reg[0] >> 16)
}

// regSetLens packs a region's entry and cache counts.
func regSetLens(reg []uint32, ents, cached int) {
	reg[0] = uint32(ents) | uint32(cached)<<16
}

// regEntries returns the live entry view (LRU first).
func regEntries(reg []uint32) []uint32 {
	e, _ := regLens(reg)
	return reg[1 : 1+e]
}

// regCache returns the replacement-cache view (oldest first). The
// cache words sit after the k entry slots, so the view needs the
// bucket capacity.
func regCache(reg []uint32, k int) []uint32 {
	_, c := regLens(reg)
	return reg[1+k : 1+k+c]
}

// regTouch records a live contact: an existing entry moves to the tail
// (most recently seen), a new one is appended if the bucket has room
// under capacity k, and otherwise it is remembered in the replacement
// cache for the next maintenance round.
func regTouch(reg []uint32, k int, c uint32) {
	ents, cached := regLens(reg)
	entries := reg[1 : 1+ents]
	for i, e := range entries {
		if e == c {
			copy(entries[i:], entries[i+1:])
			entries[ents-1] = c
			return
		}
	}
	if ents < k {
		reg[1+ents] = c
		regSetLens(reg, ents+1, cached)
		return
	}
	cache := reg[1+k : 1+k+cached]
	for _, e := range cache {
		if e == c {
			return
		}
	}
	if cached >= replacementCacheLen {
		// Drop the oldest cached contact to make room.
		copy(cache, cache[1:])
		cached--
	}
	reg[1+k+cached] = c
	regSetLens(reg, ents, cached+1)
}

// regRemove drops a contact (observed dead) from the entries and cache.
func regRemove(reg []uint32, k int, c uint32) {
	ents, cached := regLens(reg)
	entries := reg[1 : 1+ents]
	for i, e := range entries {
		if e == c {
			copy(entries[i:], entries[i+1:])
			ents--
			break
		}
	}
	cache := reg[1+k : 1+k+cached]
	for i, e := range cache {
		if e == c {
			copy(cache[i:], cache[i+1:])
			cached--
			break
		}
	}
	regSetLens(reg, ents, cached)
}

// regPromote moves up to free replacement-cache entries into the
// bucket (freshest cache entries first), used by maintenance after
// dead entries have been removed.
func regPromote(reg []uint32, k int) {
	ents, cached := regLens(reg)
	for ents < k && cached > 0 {
		reg[1+ents] = reg[1+k+cached-1]
		ents++
		cached--
	}
	regSetLens(reg, ents, cached)
}

// bucketRef returns slot s's region for bucket b, allocating one on
// first use. Caller holds stripe(s) for writing; region allocation
// takes only the leaf regionMu, so no lock-order issue arises.
func (n *Network) bucketRefFor(s uint32, b int) []uint32 {
	ref := n.st.bucketRefs[int(s)*idBits+b]
	if ref == noRegion {
		ref = n.allocRegion()
		n.st.bucketRefs[int(s)*idBits+b] = ref
	}
	return n.region(ref)
}

// touchContact records a live contact in slot s's table (Kademlia's
// passive maintenance). The contact is interned first — lock order:
// core mutex before stripe.
func (n *Network) touchContact(s uint32, id ring.Point) {
	cs := n.Intern(id)
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	n.touchLocked(s, id, cs)
}

// touchLocked is touchContact's table update for the contact id,
// interned as slot cs. The caller holds stripe(s) for writing.
func (n *Network) touchLocked(s uint32, id ring.Point, cs uint32) {
	d := xorDist(n.ID(s), id)
	if d == 0 {
		return
	}
	regTouch(n.bucketRefFor(s, bucketIndex(d)), n.cfg.BucketSize, cs)
}

// removeContact drops a dead contact from slot s's table. Contacts the
// network has no slot for cannot be in any bucket (buckets hold slot
// references), so the miss is a no-op.
func (n *Network) removeContact(s uint32, id ring.Point) {
	cs, ok := n.SlotOf(id)
	if !ok {
		return
	}
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	d := xorDist(n.ID(s), id)
	if d == 0 {
		return
	}
	if ref := a.bucketRefs[int(s)*idBits+bucketIndex(d)]; ref != noRegion {
		regRemove(n.region(ref), n.cfg.BucketSize, cs)
	}
}

// markAliveContact confirms bucket b's entry id answered a ping: it
// moves to the tail, deferring its eviction.
func (n *Network) markAliveContact(s uint32, b int, id ring.Point) {
	cs := n.Intern(id) // before the stripe: Intern takes the core mutex
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	regTouch(n.bucketRefFor(s, b), n.cfg.BucketSize, cs)
}

// promoteBucket fills bucket b of slot s from its replacement cache.
func (n *Network) promoteBucket(s uint32, b int) {
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	if ref := a.bucketRefs[int(s)*idBits+b]; ref != noRegion {
		regPromote(n.region(ref), n.cfg.BucketSize)
	}
}

// answerFindNode is a FIND_NODE's work on the answering slot s: it
// records the sender as a live contact, then selects the count contacts
// closest to target, s itself included — both under one hold of s's
// stripe. The sender is interned before the stripe is taken (lock
// order: core mutex before stripe).
func (n *Network) answerFindNode(s uint32, sender ring.Point, best []ring.Point, target ring.Point, count int) []ring.Point {
	cs := n.Intern(sender)
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	n.touchLocked(s, sender, cs)
	return n.closestLocked(s, best, target, count, true)
}

// closestIntoSlot returns the up-to-count contacts known to slot s
// closest by XOR distance to target, optionally including the owner
// itself, as a set in no order, appending into the caller's buffer
// (reused across calls by the lookup scratch). It is the lookup's seed; the FIND_NODE
// handler runs the same selection through answerFindNode.
func (n *Network) closestIntoSlot(s uint32, best []ring.Point, target ring.Point, count int, includeSelf bool) []ring.Point {
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	return n.closestLocked(s, best, target, count, includeSelf)
}

// closestLocked is closestIntoSlot under a stripe(s) the caller holds,
// in either mode. FIND_NODE handlers run it on every hop of every
// lookup, so it is the subsystem's hottest function; nothing allocates.
//
// Buckets are visited in increasing distance from the target and the
// walk stops at the first bucket boundary where best is full. With
// d = self ^ target, an entry e of bucket b differs from self first at
// bit b, so e ^ target agrees with d above bit b and has bit b flipped:
//   - d's bit b set: e is closer than self, and every entry of a higher
//     such bucket is closer still (it clears a higher bit of d) — the
//     set bits are walked from the highest down;
//   - self sits at distance d exactly, after all of those;
//   - d's bit b clear: e is farther than self, and the lower the bit it
//     sets the less it adds — the clear bits are walked from the
//     lowest up.
//
// The buckets' distance ranges are disjoint and ordered this way, so
// every bucket that fits whole is appended as stored, and only the one
// that does not gives its closest entries (appendBucket). No reader
// needs more: a lookup places each id of a reply on its own, since
// remote and forged replies come in any order.
func (n *Network) closestLocked(s uint32, best []ring.Point, target ring.Point, count int, includeSelf bool) []ring.Point {
	best = best[:0]
	if count <= 0 {
		return best
	}
	self := n.ID(s)
	row := n.st.bucketRefs[int(s)*idBits : int(s)*idBits+idBits]
	d := xorDist(self, target)
	for rem := d; rem != 0; {
		b := bucketIndex(rem)
		rem &^= 1 << uint(b)
		if best = n.appendBucket(best, row[b], target, count); len(best) == count {
			return best
		}
	}
	if includeSelf {
		if best = append(best, self); len(best) == count {
			return best
		}
	}
	for rem := ^d; rem != 0; rem &= rem - 1 {
		b := bits.TrailingZeros64(rem)
		if best = n.appendBucket(best, row[b], target, count); len(best) == count {
			return best
		}
	}
	return best
}

// appendBucket appends one bucket's entries to best, stopping when
// best holds count. A bucket that fits is appended as stored; of one
// that does not, the entries closest to target are selected on the
// keys id ^ target, which compare as the distances do and map back
// with ^ target (XOR is its own inverse), in best's spare capacity.
// Entry slots translate to identifiers with atomic loads; the caller
// holds the owning slot's stripe.
func (n *Network) appendBucket(best []ring.Point, ref uint32, target ring.Point, count int) []ring.Point {
	if ref == noRegion {
		return best
	}
	ents := regEntries(n.region(ref))
	l := len(best)
	keep := count - l
	if len(ents) <= keep {
		for _, c := range ents {
			best = append(best, n.ID(c))
		}
		return best
	}
	best = slices.Grow(best, len(ents))
	keys := best[l : l+len(ents)]
	for i, c := range ents {
		keys[i] = n.ID(c) ^ target
	}
	selectSmallest(keys, keep)
	for i := range keys[:keep] {
		keys[i] ^= target
	}
	return best[:l+keep]
}

// selectSmallest moves the keep smallest of the distinct keys to
// keys[:keep], in no order, by quickselect: each pass partitions the
// range that holds the split around its middle key.
func selectSmallest(keys []ring.Point, keep int) {
	lo, hi := 0, len(keys)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
		pivot, p := keys[hi-1], lo
		for j := lo; j < hi-1; j++ {
			if keys[j] < pivot {
				keys[p], keys[j] = keys[j], keys[p]
				p++
			}
		}
		keys[p], keys[hi-1] = keys[hi-1], keys[p]
		// keys[lo:p] < keys[p] < keys[p+1:hi].
		switch {
		case p == keep || p+1 == keep:
			return
		case p > keep:
			hi = p
		default:
			lo = p + 1
		}
	}
}

// orderByXor orders distinct ids in place by XOR distance to target.
func orderByXor(ids []ring.Point, target ring.Point) {
	for i := range ids {
		ids[i] ^= target
	}
	slices.Sort(ids)
	for i := range ids {
		ids[i] ^= target
	}
}

// entriesOfSlot returns a copy of bucket b's live entries for slot s,
// translated to identifiers (LRU first).
func (n *Network) entriesOfSlot(s uint32, b int) []ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	ref := a.bucketRefs[int(s)*idBits+b]
	if ref == noRegion {
		return nil
	}
	ents := regEntries(n.region(ref))
	out := make([]ring.Point, len(ents))
	for i, c := range ents {
		out[i] = n.ID(c)
	}
	return out
}

// Neighbors implements overlay.Router: every live entry across slot s's
// buckets.
func (n *Network) Neighbors(s uint32) []ring.Point {
	a := &n.st
	st := n.Stripe(s)
	st.RLock()
	defer st.RUnlock()
	out := make([]ring.Point, 0, idBits)
	row := a.bucketRefs[int(s)*idBits : int(s)*idBits+idBits]
	for _, ref := range row {
		if ref == noRegion {
			continue
		}
		for _, c := range regEntries(n.region(ref)) {
			out = append(out, n.ID(c))
		}
	}
	return out
}
