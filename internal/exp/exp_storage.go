package exp

import (
	"math"
	"math/rand/v2"
	"slices"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// runE20 reproduces the related-work claim the paper builds on
// (Section 1.2): a standard DHT maps Theta(log n / n) of the key space
// to the unluckiest peer, and virtual nodes (O(log n) points per peer)
// flatten the skew — at the maintenance cost the paper cites as the
// reason not to assume them. The same skew is what biases the naive
// sampler, so this experiment ties the storage-load view to E8.
func runE20(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384)
	keysPerPeer := 50
	if cfg.Quick {
		keysPerPeer = 20
	}
	for _, n := range ns {
		o, rng, err := seededOracle(cfg.Seed^0x2020, uint64(n), n)
		if err != nil {
			return err
		}
		r := o.Ring()
		// Plain DHT: owner share = arc ending at its point.
		maxArc, _ := r.MaxArc()
		plainMax := ring.UnitsToFrac(maxArc)
		// Virtual nodes: log2(n) points per owner.
		v := int(math.Log2(float64(n)))
		virt, err := dht.NewVirtualOracle(rng, n, v)
		if err != nil {
			return err
		}
		vr := virt.Ring()
		ownerShare := make([]float64, n)
		for i := 0; i < vr.Len(); i++ {
			ownerShare[virt.PeerByIndex(i).Owner] += ring.UnitsToFrac(vr.Arc(i))
		}
		virtMax := slices.Max(ownerShare)
		// Empirical check with actual keys on the plain ring.
		counts := make([]int, n)
		for k := 0; k < keysPerPeer*n; k++ {
			counts[r.Successor(ring.Point(rng.Uint64()))]++
		}
		maxKeys := slices.Max(counts)
		nf := float64(n)
		t.row(
			fmtI(n),
			fmtF(plainMax*nf),
			fmtF(plainMax*nf/math.Log(nf)),
			fmtF(virtMax*nf),
			fmtI(v),
			fmtF(float64(maxKeys)/float64(keysPerPeer)),
		)
	}
	t.AddNote("plainMax*n tracks ln n (the Theta(log n/n) arc); virtual nodes hold max share near a small constant")
	t.AddNote("this skew is simultaneously the storage imbalance and the naive sampler's bias (E8)")
	return nil
}

// runE22 measures the other side of the virtual-nodes trade-off the
// paper cites for *not* assuming them (Section 1.2, quoting [4] and
// [6]): each peer must maintain O(log n) ring positions, multiplying
// the background maintenance bandwidth. Measured on the real Chord
// protocol: messages per maintenance round, per physical peer.
func runE22(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 64, 128, 256)
	const rounds, fingersPerRound = 3, 4
	for _, n := range ns {
		rng := rand.New(rand.NewPCG(cfg.Seed^0x2222, uint64(n)))
		v := int(math.Log2(float64(n)))
		perPeer := func(points int) (float64, error) {
			r, err := ring.Generate(rng, points)
			if err != nil {
				return 0, err
			}
			net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
			if err != nil {
				return 0, err
			}
			before := net.Meter().Snapshot()
			net.Maintain(rounds, fingersPerRound)
			cost := net.Meter().Snapshot().Sub(before)
			return float64(cost.Messages) / float64(n) / rounds, nil
		}
		plain, err := perPeer(n)
		if err != nil {
			return err
		}
		virt, err := perPeer(n * v)
		if err != nil {
			return err
		}
		t.row(
			fmtI(n), fmtI(v), fmtF(plain), fmtF(virt), fmtF(virt/plain),
		)
	}
	t.AddNote("each physical peer operates log2(n) virtual ring positions; every position stabilizes and fixes fingers independently")
	t.AddNote("with E20 this completes the trade-off: virtual nodes buy load balance at ~v times the maintenance bandwidth — the paper's stated reason to solve sampling on the plain DHT")
	return nil
}
