package chord

import (
	"math/bits"

	"github.com/dht-sampling/randompeer/internal/overlay"
)

// arena holds chord's routing state as packed uint32 slot references,
// one row per slot of the network's overlay.Core (see that package for
// the storage design, the ID↔slot bridge and the locking rules). Every
// array has len == cap spanning the arena capacity.
type arena struct {
	preds   []uint32 // predecessor slot, noSlot when unknown
	succLen []uint16 // live prefix length of the successor row
	succs   []uint32 // successor rows, stride = Network.succStride
	fingers []uint32 // finger rows, stride = idBits; nil when disabled
	fingOK  []uint64 // finger-set bitmask, one word per slot
	nextFix []uint8  // next finger index to fix
}

const noSlot = ^uint32(0)

// grow reallocates every routing array to the new capacity.
func (n *Network) grow(capacity int) {
	a := &n.st
	a.preds = overlay.GrowCopy(a.preds, capacity)
	a.succLen = overlay.GrowCopy(a.succLen, capacity)
	a.succs = overlay.GrowCopy(a.succs, capacity*n.succStride)
	if !n.cfg.DisableFingers {
		a.fingers = overlay.GrowCopy(a.fingers, capacity*idBits)
		a.fingOK = overlay.GrowCopy(a.fingOK, capacity)
	}
	a.nextFix = overlay.GrowCopy(a.nextFix, capacity)
}

// resetSlot rewrites slot s to the fresh-node baseline: successor self,
// no predecessor, no fingers.
func (n *Network) resetSlot(s uint32) {
	a := &n.st
	a.preds[s] = noSlot
	a.succLen[s] = 1
	a.succs[int(s)*n.succStride] = s
	if !n.cfg.DisableFingers {
		a.fingOK[s] = 0
	}
	a.nextFix[s] = 0
}

// markSlot marks the slots live slot s references: its successor list,
// predecessor and set fingers.
func (n *Network) markSlot(s uint32, m overlay.Marks) {
	a := &n.st
	base := int(s) * n.succStride
	for i := 0; i < int(a.succLen[s]); i++ {
		m.Set(a.succs[base+i])
	}
	if p := a.preds[s]; p != noSlot {
		m.Set(p)
	}
	if !n.cfg.DisableFingers {
		fb := int(s) * idBits
		for w := a.fingOK[s]; w != 0; w &= w - 1 {
			m.Set(a.fingers[fb+bits.TrailingZeros64(w)])
		}
	}
}
