package exp

import (
	"math"

	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/biased"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE18 evaluates the extension answering the paper's open problem 3:
// sampling with specifically biased probabilities, built by rejection on
// top of the provably uniform sampler.
func runE18(cfg RunConfig, t *Table) error {
	n := 512
	samples := 40000
	if cfg.Quick {
		n, samples = 128, 8000
	}
	o, rng, err := seededOracle(cfg.Seed^0x1818, uint64(n), n)
	if err != nil {
		return err
	}
	caller := o.PeerByIndex(0)
	uniform, err := core.New(o, caller, rng, core.Config{})
	if err != nil {
		return err
	}
	invW, invMax, err := biased.InverseDistance(caller, 0.05)
	if err != nil {
		return err
	}
	stepW, stepMax, err := biased.Step(func(owner int) bool { return owner < n/4 }, 1, 0.2)
	if err != nil {
		return err
	}
	cases := []struct {
		name string
		w    biased.WeightFunc
		maxW float64
	}{
		{name: "inverse-distance", w: invW, maxW: invMax},
		{name: "step-4x", w: stepW, maxW: stepMax},
	}
	for _, c := range cases {
		s, err := biased.New(uniform, c.w, c.maxW, rng)
		if err != nil {
			return err
		}
		// Target distribution from the weights.
		target := make([]float64, n)
		var totalW float64
		for i := 0; i < n; i++ {
			target[i] = c.w(o.PeerByIndex(i))
			totalW += target[i]
		}
		counts, err := sampleCounts(s, n, samples)
		if err != nil {
			return err
		}
		var tvd float64
		for i := 0; i < n; i++ {
			tvd += math.Abs(float64(counts[i])/float64(samples) - target[i]/totalW)
		}
		tvd /= 2
		predicted := c.maxW * float64(n) / totalW
		t.row(
			c.name, fmtI(samples), fmtF(tvd),
			fmtF(math.Sqrt(float64(n)/(2*math.Pi*float64(samples)))),
			fmtF(s.MeanDraws()), fmtF(predicted),
		)
	}
	t.AddNote("n = %d; rejection over the uniform sampler inherits its exactness: TVD is pure sampling noise", n)
	return nil
}

// runE19 evaluates the extension answering the paper's open problem 2:
// approximate uniform selection on less-structured overlays via
// Metropolis-Hastings walks, compared to the plain walk the paper cites.
func runE19(cfg RunConfig, t *Table) error {
	n := 256
	samples := 80 * n
	if cfg.Quick {
		n = 64
		samples = 60 * n
	}
	o, rng, err := seededOracle(cfg.Seed^0x1919, uint64(n), n)
	if err != nil {
		return err
	}
	g := baseline.NewUndirectedOracleGraph(o)
	start := o.PeerByIndex(0)
	logN := int(math.Log2(float64(n)))
	for _, mult := range []int{1, 2, 4, 8} {
		steps := mult * logN
		plain, err := baseline.NewWalk(o, g, start, steps, rng)
		if err != nil {
			return err
		}
		mh, err := baseline.NewMetropolisWalk(o, g, start, steps, rng)
		if err != nil {
			return err
		}
		var tvds, ps []float64
		for _, s := range []dht.Sampler{plain, mh} {
			counts, err := sampleCounts(s, n, samples)
			if err != nil {
				return err
			}
			tvd, err := stats.TotalVariationUniform(counts)
			if err != nil {
				return err
			}
			_, p, err := stats.ChiSquareUniform(counts)
			if err != nil {
				return err
			}
			tvds = append(tvds, tvd)
			ps = append(ps, p)
		}
		t.row(fmtI(steps), fmtF(tvds[0]), fmtF(tvds[1]), fmtF(ps[0]), fmtF(ps[1]))
	}
	t.AddNote("n = %d, %d samples per cell; MH pays 2 RPCs per step versus 1 for the plain walk", n, samples)
	t.AddNote("answers open problem 2 for unstructured overlays: works from neighbor lists alone, but remains approximate — unlike the exact DHT algorithm")
	return nil
}
