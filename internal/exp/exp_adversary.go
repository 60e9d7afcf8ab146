package exp

import (
	"fmt"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE29 is the adversarial matrix: sampling bias (total-variation
// distance from uniform, with bootstrap CIs) and failure rate versus
// the Byzantine fraction, per overlay backend, for the naive h(x)
// sampler, the paper's uniform sampler, and the PeerSwap-style
// swap-audit mitigation — plus the eclipse capture each overlay
// concedes at the same fractions. Everything is a pure function of the
// run seed: coalition selection and every per-call lie are splitmix
// hashes, so the table is bit-identical at any GOMAXPROCS.
func runE29(cfg RunConfig, t *Table) error {
	// ~60 samples per owner keeps the empirical-TV noise floor
	// (~sqrt(2n/(pi*samples))) near 0.1, well under the attack
	// signal.
	n, samples, boot := 128, 8000, 200
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if cfg.Quick {
		n, samples, boot = 64, 600, 100
		fracs = []float64{0, 0.2}
	}
	backends := []randompeer.Backend{randompeer.ChordBackend, randompeer.KademliaBackend}
	eclipse := make([]float64, len(backends)*len(fracs))
	err := sweepRows(cfg, t, len(eclipse), func(idx int, row func(...string)) error {
		backend := backends[idx/len(fracs)]
		frac := fracs[idx%len(fracs)]
		// One placement seed per backend cell; the fraction folds
		// in so coalitions differ across columns of the sweep.
		seed := cfg.Seed ^ 0x2900 ^ uint64(idx+1)<<16
		tb, err := randompeer.New(
			randompeer.WithPeers(n),
			randompeer.WithSeed(cfg.Seed^0x29^uint64(idx/len(fracs))), // same placement across fractions
			randompeer.WithBackend(backend),
		)
		if err != nil {
			return err
		}
		vantages := tb.SwapVantages(2)
		if frac > 0 {
			if _, err := tb.InstallAdversary(fmt.Sprintf("route-bias:%g", frac), seed, vantages...); err != nil {
				return err
			}
		}
		naive := tb.NaiveSampler(seed + 1)
		uniform, err := tb.UniformSampler(seed + 2)
		if err != nil {
			return err
		}
		swap, err := tb.SwapSampler(seed+3, len(vantages))
		if err != nil {
			return err
		}
		for _, s := range []randompeer.Sampler{naive, uniform, swap} {
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
			rep, err := stats.BiasAgainstUniform(tally, stats.BiasOptions{Bootstrap: boot, Seed: seed + 4})
			if err != nil {
				return fmt.Errorf("E29 %s/%s frac %g: %w", tb.Backend(), s.Name(), frac, err)
			}
			row(
				tb.Backend().String(), fmtF(frac), s.Name(),
				fmtF(rep.TV), fmtF(rep.TVLo), fmtF(rep.TVHi),
				fmt.Sprintf("%.4f", rep.PValue),
				fmtF(float64(fails)/float64(samples)),
			)
		}
		// Eclipse capture on a fresh testbed (route-bias is still
		// armed on the sampling one): subvert, run maintenance
		// sweeps, measure the victim's captured routing state.
		etb, err := randompeer.New(
			randompeer.WithPeers(n),
			randompeer.WithSeed(cfg.Seed^0x29^uint64(idx/len(fracs))),
			randompeer.WithBackend(backend),
		)
		if err != nil {
			return err
		}
		adv, err := etb.InstallAdversary(fmt.Sprintf("eclipse:%g", frac), seed+5)
		if err != nil {
			return err
		}
		etb.Network().Maintain(6, 8)
		eclipse[idx], err = adv.EclipseFraction()
		return err
	})
	if err != nil {
		return err
	}
	for i, capture := range eclipse {
		t.row(
			backends[i/len(fracs)].String(), fmtF(fracs[i%len(fracs)]), "eclipse-capture",
			fmtF(capture), "-", "-", "-", "-",
		)
	}
	t.AddNote("route-bias steers every subverted chord routing/pointer reply to the coalition's magnet node (key-independent lies concentrate mass, maximizing TV and evading key-split audits), so naive chord TV tracks the subversion probability 1-(1-f)^hops; kademlia's two-phase owner verification (XOR lookup + ring-pointer check) limits the adversary to widest-interval pointer forgeries and bounds the lift")
	t.AddNote("swap = PeerSwap-style cross-audit hardened three ways: the audit vantage resolves a skewed key and conflicts repair to the nearer claim (the true owner is the first node clockwise of the key, so one honest route wins), implausibly wide claims are bisection-probed then capped at one mean arc (catching magnet and widest-interval lies), and fail_rate is the mitigation's price; its floor at high f is the mass of arcs whose predecessor colludes — keys there are honestly unreachable from any vantage")
	t.AddNote("eclipse-capture rows: fraction of the victim's successor/finger entries (chord) or k-bucket contacts (kademlia) pointing at colluders after 6 maintenance sweeps; kademlia's keep-oldest bucket rule resists capture in a static network, chord's stabilize-adopts-replies does not")
	return nil
}
