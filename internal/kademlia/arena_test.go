package kademlia

import (
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// bucketModel is a k-bucket as two plain slices: the reference the
// packed region words are held to.
type bucketModel struct{ ents, cache []uint32 }

func (b *bucketModel) touch(k int, c uint32) {
	if i := slices.Index(b.ents, c); i >= 0 {
		b.ents = append(slices.Delete(b.ents, i, i+1), c)
		return
	}
	if len(b.ents) < k {
		b.ents = append(b.ents, c)
		return
	}
	if slices.Contains(b.cache, c) {
		return
	}
	if len(b.cache) >= replacementCacheLen {
		b.cache = b.cache[1:]
	}
	b.cache = append(b.cache, c)
}

func (b *bucketModel) remove(c uint32) {
	if i := slices.Index(b.ents, c); i >= 0 {
		b.ents = slices.Delete(b.ents, i, i+1)
	}
	if i := slices.Index(b.cache, c); i >= 0 {
		b.cache = slices.Delete(b.cache, i, i+1)
	}
}

func (b *bucketModel) promote(k int) {
	for len(b.ents) < k && len(b.cache) > 0 {
		last := len(b.cache) - 1
		b.ents = append(b.ents, b.cache[last])
		b.cache = b.cache[:last]
	}
}

// FuzzRegionPool drives the bucket region pool and one bucket's packed
// words with operations decoded from the input, against references:
//   - the pool against a map of held refs, a LIFO free list and the bump
//     pointer: no ref is handed out twice while held, every handed-out
//     region starts with a zero header, a block reservation takes fresh
//     refs and returns its unused tail, and regions never overlap (each
//     held region keeps the tag written into its last word);
//   - the bucket (touch, remove, promote) against bucketModel. The first
//     byte picks k; at k = 0xffff the bucket starts full, so the entry
//     count fills the header's 16-bit half and contacts near k land on
//     both sides of it.
func FuzzRegionPool(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 12, 20, 5, 6, 7})
	f.Add([]byte{3, 4, 12, 132, 140, 6, 7, 14, 4, 44, 52, 60, 68, 76})
	f.Add([]byte{2, 3, 11, 0, 0, 2, 10, 18, 1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 6, 7})
	f.Add([]byte{1, 4, 12, 20, 28, 36, 44, 6, 14, 7, 15, 255, 254, 253})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		k := []int{1, 2, 16, maxBucketSize}[ops[0]%4]
		n := newNetwork(Config{BucketSize: 16}, simnet.NewDirect())
		stride := n.regStride
		held := map[uint32]uint32{} // ref -> tag in its last word
		var order, free []uint32    // held refs by age; the free list
		var next, tag uint32        // the bump pointer; the last tag
		hold := func(ref uint32) {
			t.Helper()
			if _, dup := held[ref]; dup {
				t.Fatalf("ref %d handed out twice", ref)
			}
			reg := n.region(ref)
			if reg[0] != 0 {
				t.Fatalf("ref %d handed out with header %#x", ref, reg[0])
			}
			tag++
			reg[stride-1] = tag
			held[ref] = tag
			order = append(order, ref)
		}

		reg := make([]uint32, 1+k+replacementCacheLen)
		var model bucketModel
		base := uint32(0) // contacts are base + 0..31: straddle k
		if k == maxBucketSize {
			for c := uint32(0); c < uint32(k); c++ {
				reg[1+c] = c
				model.ents = append(model.ents, c)
			}
			regSetLens(reg, k, 0)
			base = uint32(k) - 16
		}

		for _, op := range ops[1:] {
			arg := uint32(op >> 3)
			switch op % 8 {
			case 0, 1: // one allocation
				want := next + 1
				if len(free) > 0 {
					want = free[len(free)-1]
					free = free[:len(free)-1]
				} else {
					next++
				}
				got := n.allocRegion()
				if got != want {
					t.Fatalf("allocRegion = %d, want %d", got, want)
				}
				hold(got)
			case 2: // free a held ref
				if len(order) == 0 {
					continue
				}
				i := int(arg) % len(order)
				ref := order[i]
				order = slices.Delete(order, i, i+1)
				delete(held, ref)
				n.releaseRegions([]uint32{ref})
				free = append(free, ref)
			case 3: // a build worker's block: fresh refs, unused tail back
				rb := regionBatcher{n: n}
				for j := uint32(0); j <= arg%8; j++ {
					if got := rb.alloc(); got != next+1+j {
						t.Fatalf("batch alloc %d = %d, want %d", j, got, next+1+j)
					} else {
						hold(got)
					}
				}
				for r := next + 2 + arg%8; r <= next+regionBatch; r++ {
					free = append(free, r)
				}
				next += regionBatch
				rb.release()
			case 4, 5:
				regTouch(reg, k, base+arg)
				model.touch(k, base+arg)
			case 6:
				regRemove(reg, k, base+arg)
				model.remove(base + arg)
			case 7:
				regPromote(reg, k)
				model.promote(k)
			}

			for ref, want := range held {
				if got := n.region(ref)[stride-1]; got != want {
					t.Fatalf("held ref %d lost its tag: %d, want %d (regions overlap)", ref, got, want)
				}
			}
			if n.st.nextRegion != next || !slices.Equal(n.st.regionFree, free) {
				t.Fatalf("pool: bump %d free %v, reference bump %d free %v", n.st.nextRegion, n.st.regionFree, next, free)
			}
			ents, cached := regLens(reg)
			if ents != len(model.ents) || cached != len(model.cache) {
				t.Fatalf("k=%d header %#x: %d entries %d cached, reference %d and %d", k, reg[0], ents, cached, len(model.ents), len(model.cache))
			}
			if !slices.Equal(regEntries(reg), model.ents) || !slices.Equal(regCache(reg, k), model.cache) {
				t.Fatalf("k=%d bucket differs from the reference after op %d", k, op)
			}
		}
	})
}
