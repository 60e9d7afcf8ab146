package exp

import (
	"math"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE2 measures Theorem 7 on the real Chord substrate: latency
// (sequential RPCs) and messages per sample, with the O(log n) fit.
func runE2(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 64, 256, 1024, 4096)
	samplesPerCaller := 60
	callers := 12
	if cfg.Quick {
		samplesPerCaller, callers = 30, 4
	}
	var logNs, hops []float64
	for _, n := range ns {
		o, rng, err := seededOracle(cfg.Seed^0x22, uint64(n), n)
		if err != nil {
			return err
		}
		r := o.Ring()
		net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
		if err != nil {
			return err
		}
		// Average over several callers: each peer derives its own
		// size estimate and lambda, so per-caller costs vary by the
		// (7*nhat/n) trial multiplier; the mean over callers is the
		// quantity Theorem 7 bounds.
		var total simnet.Cost
		var totalTrials, totalSteps, totalSamples int64
		for c := 0; c < callers; c++ {
			d, err := net.AsDHT(r.At(c * (n / callers)))
			if err != nil {
				return err
			}
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				return err
			}
			cost, err := sampleCost(d.Meter(), s, samplesPerCaller)
			if err != nil {
				return err
			}
			total.Calls += cost.Calls
			total.Messages += cost.Messages
			st := s.Stats()
			totalTrials += st.Trials
			totalSteps += st.Steps
			totalSamples += st.Samples
		}
		samples := float64(totalSamples)
		meanHops := float64(total.Calls) / samples
		meanMsgs := float64(total.Messages) / samples
		logN := math.Log2(float64(n))
		logNs = append(logNs, logN)
		hops = append(hops, meanHops)
		t.row(
			fmtI(n), fmtF(meanHops), fmtF(meanMsgs),
			fmtF(float64(totalTrials)/samples),
			fmtF(float64(totalSteps)/samples),
			fmtF(meanHops/logN),
		)
	}
	if len(ns) >= 2 {
		slope, intercept, r2, err := stats.LinearFit(logNs, hops)
		if err != nil {
			return err
		}
		t.AddNote("fit meanHops = %.2f*log2(n) + %.2f (r^2 = %.3f); linearity in log n confirms O(log n)",
			slope, intercept, r2)
	}
	return nil
}

// runE10 compares per-sample message cost across all samplers as n
// grows — the cost side of the accuracy/cost trade-off figure.
func runE10(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384)
	samples := 300
	if cfg.Quick {
		samples = 100
	}
	for _, n := range ns {
		o, rng, err := seededOracle(cfg.Seed^0x33, uint64(n), n)
		if err != nil {
			return err
		}
		samplers, err := referenceSamplers(o, rng)
		if err != nil {
			return err
		}
		row := []string{fmtI(n)}
		for _, s := range samplers {
			cost, err := sampleCost(o.Meter(), s, samples)
			if err != nil {
				return err
			}
			row = append(row, fmtF(float64(cost.Messages)/float64(samples)))
		}
		t.row(row...)
	}
	t.AddNote("oracle backend: h charged ceil(log2 n) RPCs, next 1 RPC, walk steps 1 RPC each")
	return nil
}
