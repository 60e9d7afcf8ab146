package exp

import (
	"fmt"
	"math/rand/v2"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// runE23 demonstrates Theorem 7's t_h dependence: the algorithm's cost
// is O(t_h + log n), so the sampler inherits whatever lookup cost the
// substrate provides. On finger-routed Chord t_h = O(log n); on a
// successor-list-only ring t_h = Theta(n/r), and per-sample cost scales
// accordingly while correctness (which never depends on routing) is
// untouched.
func runE23(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 64, 256, 1024, 2048)
	samples := 150
	if cfg.Quick {
		samples = 60
	}
	const r = 8 // successor-list length
	for _, n := range ns {
		o, rng, err := seededOracle(cfg.Seed^0x2323, uint64(n), n)
		if err != nil {
			return err
		}
		rg := o.Ring()
		perSample := func(disableFingers bool) (float64, error) {
			net, err := chord.BuildStatic(chord.Config{
				SuccListLen:    r,
				MaxLookupHops:  4 * n,
				DisableFingers: disableFingers,
			}, simnet.NewDirect(), rg.Points())
			if err != nil {
				return 0, err
			}
			d, err := net.AsDHT(rg.At(0))
			if err != nil {
				return 0, err
			}
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				return 0, err
			}
			cost, err := sampleCost(d.Meter(), s, samples)
			return float64(cost.Calls) / float64(samples), err
		}
		fingerHops, err := perSample(false)
		if err != nil {
			return err
		}
		succHops, err := perSample(true)
		if err != nil {
			return err
		}
		t.row(
			fmtI(n), fmtF(fingerHops), fmtF(succHops),
			fmtF(succHops/fingerHops),
			fmtF(succHops/(float64(n)/r)),
		)
	}
	t.AddNote("successor-only routing resolves h by hopping %d peers at a time: t_h = Theta(n/r) dominates the cost as n grows", r)
	t.AddNote("the walk term (6 ln n' next-steps per trial) is identical on both substrates; only the h term differs, exactly as the O(t_h + log n) bound predicts")
	return nil
}

// runE24 is the substrate matrix: the same sampler, seeds and peer
// placements over every backend the facade offers (oracle, Chord,
// Kademlia). Uniformity must be substrate-invariant — the sampler sees
// only h and next — while the per-lookup t_h/m_h distributions expose
// each overlay's routing geometry: binary-search costs on the oracle,
// finger hops on Chord, alpha-parallel XOR waves plus an O(1) ring
// verification on Kademlia. Backends are enumerated via
// randompeer.Backends(), so new substrates join the table (and its
// uniformity gate) automatically.
func runE24(cfg RunConfig, t *Table) error {
	ns := []int{256, 1024}
	lookups, chiSamples := 150, 2048
	if !cfg.Quick {
		ns = []int{1024, 4096, 16384}
		lookups, chiSamples = 400, 8192
	}
	backends := randompeer.Backends()
	err := sweepRows(cfg, t, len(ns)*len(backends), func(idx int, row func(...string)) error {
		n := ns[idx/len(backends)]
		backend := backends[idx%len(backends)]
		// One seed per n, shared by every backend: identical
		// placements, lookup targets and sampler streams, so a
		// backend resolving ownership differently shows up as a
		// diverging row, not as noise.
		seed := cfg.Seed ^ uint64(n)<<8
		tb, err := randompeer.New(
			randompeer.WithPeers(n),
			randompeer.WithSeed(cfg.Seed^uint64(n)), // same placement for every backend
			randompeer.WithBackend(backend),
		)
		if err != nil {
			return err
		}
		d := tb.DHT()
		rng := rand.New(rand.NewPCG(seed, seed^0x24))
		// Per-lookup t_h (RPC round trips) and m_h (messages).
		hRPC := make([]float64, lookups)
		hMsg := make([]float64, lookups)
		for i := range hRPC {
			before := d.Meter().Snapshot()
			if _, err := d.H(ring.Point(rng.Uint64())); err != nil {
				return err
			}
			cost := d.Meter().Snapshot().Sub(before)
			hRPC[i] = float64(cost.Calls)
			hMsg[i] = float64(cost.Messages)
		}
		// Per-next cost (one pointer chase).
		p, err := d.H(ring.Point(rng.Uint64()))
		if err != nil {
			return err
		}
		before := d.Meter().Snapshot()
		const nextSteps = 64
		for i := 0; i < nextSteps; i++ {
			if p, err = d.Next(p); err != nil {
				return err
			}
		}
		nextRPC := float64(d.Meter().Snapshot().Sub(before).Calls) / nextSteps
		// Sampler cost and uniformity with identical seeds.
		s, err := tb.UniformSampler(seed + 1)
		if err != nil {
			return err
		}
		before = d.Meter().Snapshot()
		tally, err := sampleCounts(s, tb.Size(), chiSamples)
		if err != nil {
			return err
		}
		sampleRPC := float64(d.Meter().Snapshot().Sub(before).Calls) / float64(chiSamples)
		_, pvalue, err := stats.ChiSquareUniform(tally)
		if err != nil {
			return err
		}
		hs := stats.Summarize(hRPC)
		msgs := stats.Summarize(hMsg)
		row(
			backend.String(), fmtI(n),
			fmtF(hs.Mean), fmtF(hs.Max), fmtF(msgs.Mean),
			fmtF(nextRPC), fmtF(sampleRPC),
			fmt.Sprintf("%.4f", pvalue),
		)
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("placements, lookup targets and sampler seeds are shared per n, so every backend draws the identical sample sequence: chi2_p must be equal across backends at each n (>= 0.05 is consistent with uniform)")
	t.AddNote("kademlia h = iterative FIND_NODE (alpha=3, k=16) + O(1) ring verification; chord h = finger hops; oracle h = synthetic ceil(log2 n)")
	return nil
}
