package exp

import (
	"github.com/dht-sampling/randompeer/internal/arcs"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE4 measures Lemma 1's successor-arc bounds.
func runE4(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384)
	seedCount := 10
	if cfg.Quick {
		seedCount = 3
	}
	for _, n := range ns {
		rings, err := ringSeeds(cfg.Seed^0x66, n, seedCount)
		if err != nil {
			return err
		}
		var agg arcs.Lemma1Result
		first := true
		for _, r := range rings {
			res, err := arcs.CheckLemma1(r)
			if err != nil {
				return err
			}
			if first {
				agg = res
				first = false
				continue
			}
			if res.MinLogInv < agg.MinLogInv {
				agg.MinLogInv = res.MinLogInv
			}
			if res.MaxLogInv > agg.MaxLogInv {
				agg.MaxLogInv = res.MaxLogInv
			}
			agg.Violations += res.Violations
		}
		t.row(
			fmtI(n), fmtI(seedCount), fmtF(agg.LowerBound), fmtF(agg.UpperBound),
			fmtF(agg.MinLogInv), fmtF(agg.MaxLogInv), fmtI(agg.Violations),
		)
	}
	return nil
}

// runE5 measures Lemma 2's anchored-interval concentration.
func runE5(cfg RunConfig, t *Table) error {
	params := arcs.Lemma2Params{C: 8, Alpha1: 1, Alpha2: 3, Eps: 0.5}
	ns := sweep(cfg.Quick, 512, 2048, 8192)
	for _, n := range ns {
		rings, err := ringSeeds(cfg.Seed^0x77, n, 3)
		if err != nil {
			return err
		}
		violations := 0
		var last arcs.Lemma2Result
		minLen, maxLen := 1.0, 0.0
		for _, r := range rings {
			res, err := arcs.CheckLemma2(r, params)
			if err != nil {
				return err
			}
			violations += res.Violations
			if res.MinLenFrac < minLen {
				minLen = res.MinLenFrac
			}
			if res.MaxLenFrac > maxLen {
				maxLen = res.MaxLenFrac
			}
			last = res
		}
		t.row(
			fmtI(n),
			fmtI(last.KLow)+"-"+fmtI(last.KHigh),
			fmtF(last.LowerFrac), fmtF(last.UpperFrac),
			fmtF(minLen), fmtF(maxLen), fmtI(violations),
		)
	}
	t.AddNote("params C=%v alpha1=%v alpha2=%v eps=%v (log base 2, per the Lemma 2 proof)",
		params.C, params.Alpha1, params.Alpha2, params.Eps)
	return nil
}

// runE6 measures Lemma 4's window-sum lower bound, the property that
// guarantees every needy interval finds supplementary measure within
// 6 ln n steps.
func runE6(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384)
	seedCount := 10
	if cfg.Quick {
		seedCount = 3
	}
	for _, n := range ns {
		rings, err := ringSeeds(cfg.Seed^0x88, n, seedCount)
		if err != nil {
			return err
		}
		violations := 0
		minSum := 1.0
		var window int
		var threshold float64
		for _, r := range rings {
			res, err := arcs.CheckLemma4(r)
			if err != nil {
				return err
			}
			violations += res.Violations
			if res.MinSumFrac < minSum {
				minSum = res.MinSumFrac
			}
			window = res.Window
			threshold = res.Threshold
		}
		t.row(
			fmtI(n), fmtI(window), fmtF(threshold), fmtF(minSum),
			fmtF(minSum/threshold), fmtI(violations),
		)
	}
	return nil
}

// runE7 measures Theorem 8: the minimum arc is Theta(1/n^2), plus the
// cited Theta(log n / n) maximum arc.
func runE7(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 1024, 4096, 16384, 65536)
	seedCount := 20
	if cfg.Quick {
		seedCount = 5
	}
	var minMeans []float64
	for _, n := range ns {
		rings, err := ringSeeds(cfg.Seed^0x99, n, seedCount)
		if err != nil {
			return err
		}
		minScaled := make([]float64, 0, seedCount)
		maxScaled := make([]float64, 0, seedCount)
		for _, r := range rings {
			res, err := arcs.Extremes(r)
			if err != nil {
				return err
			}
			minScaled = append(minScaled, res.MinScaled)
			maxScaled = append(maxScaled, res.MaxScaled)
		}
		minSum := stats.Summarize(minScaled)
		maxSum := stats.Summarize(maxScaled)
		minMeans = append(minMeans, minSum.Mean)
		t.row(
			fmtI(n), fmtI(seedCount),
			fmtF(minSum.Mean), fmtF(minSum.P95),
			fmtF(maxSum.Mean), fmtF(maxSum.P95),
		)
	}
	logRatioNote(t, "n^2*minArc", ns, minMeans)
	t.AddNote("Theta(1) scaled statistics across a %dx range of n confirm both exponents", ns[len(ns)-1]/ns[0])
	return nil
}
