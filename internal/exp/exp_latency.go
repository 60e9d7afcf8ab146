package exp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// LatencyModel resolves the run's latency model: the -latency flag spec
// when given, else a constant 1ms round trip — the model under which
// per-sample virtual latency is exactly (sequential RPCs) x 1ms, making
// the O(log n) latency bound directly readable.
func (cfg RunConfig) LatencyModel() (sim.Model, error) {
	if cfg.Latency == "" {
		return sim.Constant{RTT: time.Millisecond}, nil
	}
	return sim.ParseModel(cfg.Latency)
}

// latencyModel resolves the run's latency model and names it in the
// table's title.
func latencyModel(cfg RunConfig, t *Table) (sim.Model, error) {
	model, err := cfg.LatencyModel()
	if err != nil {
		return nil, err
	}
	t.Title += " (model " + model.Name() + ")"
	return model, nil
}

// quantileOf returns the q-quantile of a sorted sample.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runE25 measures the latency CDF of Choose Random Peer on simulated
// time: every backend runs over a virtual clock, each sample's latency
// is the virtual time it consumed, and the mean must grow
// logarithmically in n — Theorem 7's O(t_h + log n) latency bound
// measured in time units rather than inferred from hop counts.
func runE25(cfg RunConfig, t *Table) error {
	model, err := latencyModel(cfg, t)
	if err != nil {
		return err
	}
	ns := sweep(cfg.Quick, 128, 512, 2048, 8192)
	// Average over several callers: each peer derives its own size
	// estimate, so per-caller latency varies by the (7*nhat/n)
	// trial multiplier; pooling callers measures the expectation
	// Theorem 7 bounds (same discipline and caller count as E2).
	// meanTrials is reported so a skewed realized multiplier is
	// visible rather than read as a latency anomaly.
	samplesPerCaller, callers := 60, 12
	if cfg.Quick {
		samplesPerCaller, callers = 30, 4
	}
	samples := samplesPerCaller * callers
	backends := randompeer.Backends()
	means := make([]float64, len(backends)*len(ns)) // milliseconds, for the per-backend fit
	err = sweepRows(cfg, t, len(means), func(idx int, row func(...string)) error {
		backend := backends[idx/len(ns)]
		n := ns[idx%len(ns)]
		tb, err := randompeer.New(
			randompeer.WithPeers(n),
			randompeer.WithSeed(cfg.Seed^uint64(n)),
			randompeer.WithBackend(backend),
			randompeer.WithLatencyModel(model),
		)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(cfg.Seed^0x25, uint64(n)))
		lats := make([]float64, 0, samples)
		var totalTrials, totalSamples int64
		for c := 0; c < callers; c++ {
			p, err := tb.Peer(c * (n / callers))
			if err != nil {
				return err
			}
			s, err := core.New(tb.DHT(), p, rng, core.Config{})
			if err != nil {
				return err
			}
			for i := 0; i < samplesPerCaller; i++ {
				before := tb.VirtualTime()
				if _, err := s.Sample(); err != nil {
					return err
				}
				lats = append(lats, ms(tb.VirtualTime()-before))
			}
			st := s.Stats()
			totalTrials += st.Trials
			totalSamples += st.Samples
		}
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		mean := sum / float64(len(lats))
		means[idx] = mean
		row(
			backend.String(), fmtI(n),
			fmtF(mean),
			fmtF(quantileOf(lats, 0.50)),
			fmtF(quantileOf(lats, 0.90)),
			fmtF(quantileOf(lats, 0.99)),
			fmtF(float64(totalTrials)/float64(totalSamples)),
			fmtF(mean/math.Log2(float64(n))),
		)
		return nil
	})
	if err != nil {
		return err
	}
	// Per-backend log fit: latency must be linear in log n.
	logNs := make([]float64, len(ns))
	for i, n := range ns {
		logNs[i] = math.Log2(float64(n))
	}
	for bi, backend := range backends {
		slope, intercept, r2, err := stats.LinearFit(logNs, means[bi*len(ns):(bi+1)*len(ns)])
		if err != nil {
			return err
		}
		t.AddNote("%s: mean latency = %.3f*log2(n) + %.3f ms (r^2 = %.3f); linearity in log n is the O(log n) latency bound",
			backend, slope, intercept, r2)
	}
	t.AddNote("latency = virtual time per sample; RPCs issue sequentially, so kademlia's alpha-parallel waves are charged serially here (an upper bound on its latency)")
	return nil
}

// runE26 measures sampling under asynchronous churn: joins, crashes and
// maintenance run as timed events on the discrete-event kernel,
// concurrent in virtual time with a sampler process, at a sweep of
// event rates. It reports the in-churn success/failure split and the
// post-churn uniformity — on Chord and on Kademlia, through the same
// generic driver.
func runE26(cfg RunConfig, t *Table) error {
	model, err := latencyModel(cfg, t)
	if err != nil {
		return err
	}
	n := 96
	events := 40
	postSamples := 30
	gaps := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond}
	if cfg.Quick {
		n, events, postSamples = 48, 20, 20
		gaps = gaps[:2]
	}
	substrates := overlays.Names
	tallies := make([]*samplerTally, len(substrates)*len(gaps))
	err = sweepRows(cfg, t, len(tallies), func(idx int, row func(...string)) error {
		sub := substrates[idx/len(gaps)]
		gap := gaps[idx%len(gaps)]
		seed := cfg.Seed ^ 0x26 ^ uint64(gap)
		sc, err := newScenario(sub, n, model, seed)
		if err != nil {
			return err
		}
		if err := sc.scheduleChurn(events, churn.AsyncConfig{
			MeanInterval:        gap,
			MaintenanceInterval: 5 * time.Millisecond,
		}); err != nil {
			return err
		}
		tally := sc.goSamplers()
		tallies[idx] = tally
		sc.k.Run()
		vtime := sc.k.Now()
		// Settle synchronously, then measure uniformity over the
		// survivors with fresh owner indices.
		ringOK, pvalue, err := settledChi2(sc.ov, sc.d, rand.New(rand.NewPCG(seed+99, seed+100)), postSamples)
		if err != nil {
			return err
		}
		row(
			sub,
			fmtF(ms(gap)),
			fmtI(len(sc.churn.Events)),
			fmtI(sc.churn.StepErrors),
			fmtI(tally.ok), fmtI(tally.estErrs), fmtI(tally.sampleErrs),
			fmt.Sprintf("%.4f", pvalue),
			yesNo(ringOK),
			fmtF(ms(vtime)),
		)
		return nil
	})
	if err != nil {
		return err
	}
	t.AddNote("start n = %d; events are joins/crashes at exponential gaps, maintenance sweeps every 5ms run all nodes in parallel kernel processes, samples run concurrently in virtual time", n)
	t.AddNote("%d sampler processes draw concurrently; smaller gaps put more topology changes inside each in-flight sample — the paper's stable-ring assumption under stress", scenarioSamplers)
	causes := ""
	for si, sub := range substrates {
		var errs, next int
		for _, tally := range tallies[si*len(gaps) : (si+1)*len(gaps)] {
			errs += tally.estErrs + tally.sampleErrs
			next += tally.nextErrs
		}
		causes += fmt.Sprintf("; %s %d of %d", sub, next, errs)
	}
	t.AddNote("estErrs are failed size estimates, sampleErrs failed draws; by cause, those that were a next(p) step on a peer that crashed under the walk (dht.ErrUnknownPeer), the rest failing inside h%s", causes)
	return nil
}
