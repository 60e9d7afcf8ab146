package exp

import (
	"context"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/engine"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE1 verifies Theorem 6 two ways: exactly, via the assignment
// analyzer (per-peer measure == lambda up to integer rounding), and
// empirically, via a chi-square test over sampler draws.
func runE1(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384)
	samplesPerPeer := 40
	if cfg.Quick {
		samplesPerPeer = 20
	}
	// Sweep points are independent (each seeds its own PCG from
	// (Seed, n)) and the empirical draws run through the batch
	// engine, whose per-block forks make the tally a pure
	// function of the seed — so the table is identical at any
	// worker count. The worker budget is split between the two
	// levels (outer sweep points times inner engine workers
	// stays within cfg.Workers), not multiplied.
	inner := max(1, cfg.workerCount()/min(cfg.workerCount(), len(ns)))
	err := sweepRows(cfg, t, len(ns), func(i int, row func(...string)) error {
		n := ns[i]
		o, rng, err := seededOracle(cfg.Seed, uint64(n), n)
		if err != nil {
			return err
		}
		params, err := core.DeriveParams(float64(n), 1, 6)
		if err != nil {
			return err
		}
		a, err := core.Analyze(o.Ring(), params.Lambda, params.MaxSteps)
		if err != nil {
			return err
		}
		s, err := core.NewWithParams(o, rng, params, core.Config{})
		if err != nil {
			return err
		}
		res, err := engine.SampleN(context.Background(), s, samplesPerPeer*n, engine.Config{
			Workers:   inner,
			Seed:      cfg.Seed ^ uint64(n),
			Owners:    o.Owners(),
			TallyOnly: true,
		})
		if err != nil {
			return err
		}
		_, pvalue, err := stats.ChiSquareUniform(res.Tally)
		if err != nil {
			return err
		}
		relDev := float64(a.MaxDeviation) / float64(params.Lambda)
		row(
			fmtI(n), fmtU(params.Lambda), fmtI(params.MaxSteps),
			fmtU(a.MaxDeviation), fmtF(relDev), fmtF(a.SuccessProbability), fmtF(pvalue),
		)
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("paper: measure per peer exactly lambda (Thm 6); measured relDev is integer-rounding only")
	return nil
}

// runE17 isolates the integer-keyspace rounding error of the exact-
// lambda identity across n and walk bounds.
func runE17(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096, 16384, 65536)
	err := sweepRows(cfg, t, len(ns), func(i int, row func(...string)) error {
		n := ns[i]
		o, _, err := seededOracle(cfg.Seed^0x11, uint64(n), n)
		if err != nil {
			return err
		}
		params, err := core.DeriveParams(float64(n), 1, 6)
		if err != nil {
			return err
		}
		for _, steps := range []int{params.MaxSteps, 2 * params.MaxSteps} {
			a, err := core.Analyze(o.Ring(), params.Lambda, steps)
			if err != nil {
				return err
			}
			row(
				fmtI(n), fmtI(steps), fmtU(params.Lambda), fmtU(a.MaxDeviation),
				fmtF(float64(a.MaxDeviation)/float64(params.Lambda)),
				fmtF(1-a.SuccessProbability),
			)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("substitution: real-valued circle -> 2^64-unit integer circle (DESIGN.md section 2)")
	return nil
}

// runE21 closes the loop on Theorem 6: E1 verifies exactness for a
// perfect size estimate; here every caller derives its own lambda from
// its own Estimate n run (the deployed configuration), and the analyzer
// verifies the per-caller partition is still exactly lambda-per-peer.
// The theorem guarantees exactly this: uniformity holds for any lambda
// <= 1/(7n), with only the trial success probability varying.
func runE21(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096)
	callers := 8
	err := sweepRows(cfg, t, len(ns), func(i int, row func(...string)) error {
		n := ns[i]
		o, _, err := seededOracle(cfg.Seed^0x2121, uint64(n), n)
		if err != nil {
			return err
		}
		minRatio, maxRatio := 1e18, 0.0
		minSucc, maxSucc := 1.0, 0.0
		worstRel := 0.0
		for c := 0; c < callers; c++ {
			est, err := core.EstimateN(o, o.PeerByIndex(c*(n/callers)), 2)
			if err != nil {
				return err
			}
			params, err := core.DeriveParams(est.NHat, 2.0/7.0, 6)
			if err != nil {
				return err
			}
			a, err := core.Analyze(o.Ring(), params.Lambda, params.MaxSteps)
			if err != nil {
				return err
			}
			ratio := est.NHat / float64(n)
			if ratio < minRatio {
				minRatio = ratio
			}
			if ratio > maxRatio {
				maxRatio = ratio
			}
			if rel := float64(a.MaxDeviation) / float64(params.Lambda); rel > worstRel {
				worstRel = rel
			}
			if a.SuccessProbability < minSucc {
				minSucc = a.SuccessProbability
			}
			if a.SuccessProbability > maxSucc {
				maxSucc = a.SuccessProbability
			}
		}
		row(
			fmtI(n), fmtI(callers), fmtF(minRatio), fmtF(maxRatio),
			fmtF(worstRel), fmtF(minSucc), fmtF(maxSucc),
		)
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("underestimates raise the per-trial success probability, overestimates lower it; neither perturbs exactness")
	return nil
}
