package main

import (
	"fmt"
	"os"
	"time"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// AdversaryBench records the adversarial-robustness posture per overlay
// backend at a fixed Byzantine fraction: the naive sampler's bias under
// route-bias subversion, the swap mitigation's accepted bias and
// failure-rate price, and the eclipse capture the overlay concedes
// after maintenance. Every field is a pure function of the seed (the
// coalition, every lie and the sample stream are all seeded), so the
// committed snapshot is a behavioral record — benchdiff compares every
// field but wall_ms for equality.
type AdversaryBench struct {
	Backend        string  `json:"backend"`
	Peers          int     `json:"peers"`
	Fraction       float64 `json:"fraction"`
	Samples        int     `json:"samples"`
	NaiveTV        float64 `json:"naive_tv"`
	SwapTV         float64 `json:"swap_tv"`
	SwapFailRate   float64 `json:"swap_fail_rate"`
	EclipseCapture float64 `json:"eclipse_capture"`
	WallMS         float64 `json:"wall_ms"`
}

// measureAdversary runs the fixed adversarial scenario on each overlay
// backend: a route-bias coalition subverting 20% of a 128-peer
// network, measured with 4000 samples per sampler, plus the eclipse
// capture after 6 maintenance sweeps.
func measureAdversary(backends []string, seed uint64) ([]AdversaryBench, error) {
	const (
		n       = 128
		frac    = 0.2
		samples = 4000
	)
	var out []AdversaryBench
	for _, name := range backends {
		backend, err := randompeer.ParseBackend(name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "benchsnap: adversary scenario — %s, route-bias %g over %d peers...\n",
			backend, frac, n)
		start := time.Now()
		bed := []randompeer.Option{randompeer.WithPeers(n), randompeer.WithSeed(seed ^ 0xad), randompeer.WithBackend(backend)}
		tb, err := randompeer.New(bed...)
		if err != nil {
			return nil, err
		}
		vantages := tb.SwapVantages(2)
		if _, err := tb.InstallAdversary(fmt.Sprintf("route-bias:%g", frac), seed^0xad1, vantages...); err != nil {
			return nil, err
		}
		naive := tb.NaiveSampler(seed + 1)
		swap, err := tb.SwapSampler(seed+2, len(vantages))
		if err != nil {
			return nil, err
		}
		tv := func(s randompeer.Sampler) (float64, float64, error) {
			tally := make([]int64, tb.Size())
			fails := 0
			for i := 0; i < samples; i++ {
				p, err := s.Sample()
				if err != nil {
					fails++
					continue
				}
				tally[p.Owner]++
			}
			v, err := stats.TotalVariationUniform(tally)
			return v, float64(fails) / samples, err
		}
		naiveTV, _, err := tv(naive)
		if err != nil {
			return nil, err
		}
		swapTV, swapFails, err := tv(swap)
		if err != nil {
			return nil, err
		}
		// Eclipse runs on a fresh testbed: route-bias is still armed on
		// the sampling one.
		etb, err := randompeer.New(bed...)
		if err != nil {
			return nil, err
		}
		adv, err := etb.InstallAdversary(fmt.Sprintf("eclipse:%g", frac), seed^0xad2)
		if err != nil {
			return nil, err
		}
		etb.Network().Maintain(6, 8)
		capture, err := adv.EclipseFraction()
		if err != nil {
			return nil, err
		}
		b := AdversaryBench{
			Backend:        backend.String(),
			Peers:          n,
			Fraction:       frac,
			Samples:        samples,
			NaiveTV:        naiveTV,
			SwapTV:         swapTV,
			SwapFailRate:   swapFails,
			EclipseCapture: capture,
			WallMS:         msF(time.Since(start)),
		}
		out = append(out, b)
		fmt.Fprintf(os.Stderr, "benchsnap: adversary %s: naive TV %.4f, swap TV %.4f (fail %.4f), eclipse %.4f\n",
			backend, b.NaiveTV, b.SwapTV, b.SwapFailRate, b.EclipseCapture)
	}
	return out, nil
}
