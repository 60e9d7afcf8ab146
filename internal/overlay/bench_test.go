package overlay

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

var resolveSink uint32

// BenchmarkCoreResolve times the three membership reads an RPC makes to
// find its callee: LiveSlot (the transport's ownership check), SlotOf
// (the dispatch to a slot) and the adapter's peerOf (the owner index of
// the answer). The membership is a static build of n ids on the fake
// overlay, probed in a scattered order. Each read is one atomic load
// and one directory search, with no lock and no allocation.
func BenchmarkCoreResolve(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"n=2^14", 1 << 14}, {"n=1e6", 1_000_000}} {
		r, err := ring.Generate(rand.New(rand.NewPCG(uint64(sz.n), 3)), sz.n)
		if err != nil {
			b.Fatal(err)
		}
		f := newFake(simnet.NewDirect())
		if err := f.BuildStatic(r.Points(), nil, func(*ring.Ring, []int) {}); err != nil {
			b.Fatal(err)
		}
		d := &DHT{core: &f.Core}
		d.RefreshOwners()
		ids := r.Sorted()
		probe := func(i int) ring.Point { return ids[uint(i)*0x9E3779B1%uint(sz.n)] }
		reads := []struct {
			name string
			read func(ring.Point) uint32
		}{
			{"LiveSlot", func(id ring.Point) uint32 { s, _ := f.LiveSlot(id); return s }},
			{"SlotOf", func(id ring.Point) uint32 { s, _ := f.SlotOf(id); return s }},
			{"peerOf", func(id ring.Point) uint32 { return uint32(d.peerOf(id).Owner) }},
		}
		for _, rd := range reads {
			b.Run(rd.name+"/"+sz.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					resolveSink += rd.read(probe(i))
				}
			})
		}
	}
}
