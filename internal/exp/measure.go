package exp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// seededOracle returns the generator PCG(seed, stream) and the n-peer
// oracle DHT whose placement is that generator's first draw; o.Ring()
// is the placement for experiments that build an overlay on it.
func seededOracle(seed, stream uint64, n int) (*dht.Oracle, *rand.Rand, error) {
	rng := rand.New(rand.NewPCG(seed, stream))
	o, err := dht.GenerateOracle(rng, n)
	return o, rng, err
}

// ringSeeds generates seeded rings for repeated structural measurements.
func ringSeeds(seed uint64, n, count int) ([]*ring.Ring, error) {
	rings := make([]*ring.Ring, 0, count)
	for s := 0; s < count; s++ {
		o, _, err := seededOracle(seed+uint64(s)*0x9e37, uint64(n), n)
		if err != nil {
			return nil, err
		}
		rings = append(rings, o.Ring())
	}
	return rings, nil
}

// referenceSamplers builds, in column order, the paper's sampler and the
// baselines E9 and E10 compare it with on one oracle: king-saia, naive,
// and plain walks of log2(n) and 3 log2(n) steps from peer 0.
func referenceSamplers(o *dht.Oracle, rng *rand.Rand) ([]dht.Sampler, error) {
	logN := int(math.Log2(float64(o.Size())))
	ks, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		return nil, err
	}
	graph := baseline.NewOracleGraph(o)
	w1, err := baseline.NewWalk(o, graph, o.PeerByIndex(0), logN, rng)
	if err != nil {
		return nil, err
	}
	w3, err := baseline.NewWalk(o, graph, o.PeerByIndex(0), 3*logN, rng)
	if err != nil {
		return nil, err
	}
	return []dht.Sampler{ks, baseline.NewNaive(o, rng), w1, w3}, nil
}

// sampleCost draws k samples from s and returns what they charged to m.
func sampleCost(m *simnet.Meter, s dht.Sampler, k int) (simnet.Cost, error) {
	before := m.Snapshot()
	for i := 0; i < k; i++ {
		if _, err := s.Sample(); err != nil {
			return simnet.Cost{}, err
		}
	}
	return m.Snapshot().Sub(before), nil
}

// sampleCounts draws k samples from a sampler and tallies by owner.
func sampleCounts(s dht.Sampler, owners, k int) ([]int64, error) {
	counts := make([]int64, owners)
	for i := 0; i < k; i++ {
		p, err := s.Sample()
		if err != nil {
			return nil, fmt.Errorf("exp: drawing sample %d from %s: %w", i, s.Name(), err)
		}
		if p.Owner < 0 || p.Owner >= owners {
			return nil, fmt.Errorf("exp: sampler %s returned owner %d outside [0, %d)", s.Name(), p.Owner, owners)
		}
		counts[p.Owner]++
	}
	return counts, nil
}

// settledChi2 is the post-churn half of E15 and E26: settle the overlay
// synchronously, report whether its ring verifies, then draw perOwner
// samples per survivor from a fresh sampler over re-ranked owner indices
// and return the chi-square p-value of the tally. A draw that lands on a
// point outside the refreshed membership is left out of the tally.
func settledChi2(ov overlay.Network, d *overlay.DHT, rng *rand.Rand, perOwner int) (repaired bool, pvalue float64, err error) {
	ov.Maintain(12, 16)
	repaired = ov.VerifyRing() == nil
	d.RefreshOwners()
	s, err := core.New(d, d.Self(), rng, core.Config{})
	if err != nil {
		return false, 0, err
	}
	owners := d.Size()
	counts := make([]int64, owners)
	for i := 0; i < perOwner*owners; i++ {
		p, err := s.Sample()
		if err != nil {
			return false, 0, err
		}
		if p.Owner >= 0 && p.Owner < owners {
			counts[p.Owner]++
		}
	}
	_, pvalue, err = stats.ChiSquareUniform(counts)
	return repaired, pvalue, err
}

// logRatioNote annotates a table with the growth rate of a column pair.
func logRatioNote(t *Table, label string, ns []int, vals []float64) {
	if len(ns) < 2 || len(vals) != len(ns) {
		return
	}
	first, last := vals[0], vals[len(vals)-1]
	nRatio := float64(ns[len(ns)-1]) / float64(ns[0])
	if first <= 0 || last <= 0 || nRatio <= 1 {
		return
	}
	growth := math.Log(last/first) / math.Log(nRatio)
	t.AddNote("%s grows like n^%.2f over the sweep", label, growth)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// yesNo renders a verdict cell.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
