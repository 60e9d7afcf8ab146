package exp

import (
	"math"

	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE8 measures the naive heuristic's bias exactly (no sampling noise):
// the most likely peer is Theta(n log n) more likely than the least.
func runE8(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384, 65536)
	seedCount := 10
	if cfg.Quick {
		seedCount = 3
	}
	var ratios []float64
	for _, n := range ns {
		rings, err := ringSeeds(cfg.Seed^0xaa, n, seedCount)
		if err != nil {
			return err
		}
		var maxPn, minPn, ratio, ratioNorm float64
		for _, r := range rings {
			probs, err := core.NaiveDistribution(r)
			if err != nil {
				return err
			}
			minP, maxP := math.Inf(1), 0.0
			for _, p := range probs {
				minP = math.Min(minP, p)
				maxP = math.Max(maxP, p)
			}
			nf := float64(n)
			maxPn += maxP * nf
			minPn += minP * nf
			ratio += maxP / minP
			ratioNorm += (maxP / minP) / (nf * math.Log(nf))
		}
		s := float64(seedCount)
		ratios = append(ratios, ratio/s)
		t.row(
			fmtI(n), fmtI(seedCount), fmtF(maxPn/s), fmtF(minPn/s),
			fmtF(ratio/s), fmtF(ratioNorm/s),
		)
	}
	logRatioNote(t, "bias ratio", ns, ratios)
	t.AddNote("paper: longest arc Theta(log n/n), shortest Theta(1/n^2) -> ratio Theta(n log n)")
	return nil
}

// runE9 is the accuracy figure: total-variation distance from uniform
// versus number of samples, for every sampler.
func runE9(cfg RunConfig, t *Table) error {
	n := 1024
	sampleSizes := []int{2048, 8192, 32768, 131072}
	if cfg.Quick {
		n = 256
		sampleSizes = []int{1024, 4096, 16384}
	}
	o, rng, err := seededOracle(cfg.Seed^0xbb, uint64(n), n)
	if err != nil {
		return err
	}
	biasFloor, err := naiveDistributionTVD(o.Ring())
	if err != nil {
		return err
	}
	virt, err := dht.NewVirtualOracle(rng, n, int(math.Log2(float64(n))))
	if err != nil {
		return err
	}
	samplers, err := referenceSamplers(o, rng)
	if err != nil {
		return err
	}
	samplers = append(samplers, baseline.NewVirtualNaive(virt, rng))
	for _, k := range sampleSizes {
		row := []string{fmtI(k)}
		for _, s := range samplers {
			counts, err := sampleCounts(s, n, k)
			if err != nil {
				return err
			}
			tvd, err := stats.TotalVariationUniform(counts)
			if err != nil {
				return err
			}
			row = append(row, fmtF(tvd))
		}
		// The expected TVD of k perfect uniform draws over n bins
		// (finite-sample noise floor): ~sqrt(n/(2*pi*k)).
		row = append(row, fmtF(math.Sqrt(float64(n)/(2*math.Pi*float64(k)))))
		t.row(row...)
	}
	t.AddNote("n = %d; king-saia should track the noise floor, biased samplers flatten above it", n)
	t.AddNote("exact naive bias floor (TVD of the arc distribution, no sampling noise): %.4f", biasFloor)
	return nil
}

// naiveDistributionTVD computes the exact TVD of the naive heuristic on
// a ring (its bias floor, with no sampling noise).
func naiveDistributionTVD(r *ring.Ring) (float64, error) {
	probs, err := core.NaiveDistribution(r)
	if err != nil {
		return 0, err
	}
	return stats.TotalVariation(probs)
}
