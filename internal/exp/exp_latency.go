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
	"github.com/dht-sampling/randompeer/internal/ring"
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

// quantileOf returns the q-quantile of a sorted sample.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// expE25 measures the latency CDF of Choose Random Peer on simulated
// time: every backend runs over a virtual clock, each sample's latency
// is the virtual time it consumed, and the mean must grow
// logarithmically in n — Theorem 7's O(t_h + log n) latency bound
// measured in time units rather than inferred from hop counts.
func expE25() Experiment {
	return Experiment{
		ID:    "E25",
		Title: "Latency CDF of choose-random-peer on simulated time (Theorem 7, in time units)",
		Claim: "per-sample virtual latency is O(log n) on every backend under a constant-latency link model",
		Run: func(cfg RunConfig) (*Table, error) {
			model, err := cfg.LatencyModel()
			if err != nil {
				return nil, err
			}
			t := &Table{
				ID:      "E25",
				Title:   "Per-sample virtual latency by backend and size (model " + model.Name() + ")",
				Claim:   "mean choose-latency grows ~logarithmically in n; tail quantiles stay near the mean",
				Columns: []string{"backend", "n", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "meanTrials", "mean/log2n"},
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
			type point struct {
				cells []string
				mean  float64 // milliseconds
				logN  float64
			}
			points := make([]point, len(backends)*len(ns))
			err = forEach(cfg.workerCount(), len(points), func(idx int) error {
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
						lats = append(lats, float64(tb.VirtualTime()-before)/float64(time.Millisecond))
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
				logN := math.Log2(float64(n))
				points[idx] = point{
					cells: []string{
						backend.String(), fmtI(n),
						fmtF(mean),
						fmtF(quantileOf(lats, 0.50)),
						fmtF(quantileOf(lats, 0.90)),
						fmtF(quantileOf(lats, 0.99)),
						fmtF(float64(totalTrials) / float64(totalSamples)),
						fmtF(mean / logN),
					},
					mean: mean,
					logN: logN,
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				if err := t.AddRow(p.cells...); err != nil {
					return nil, err
				}
			}
			// Per-backend log fit: latency must be linear in log n.
			for bi, backend := range backends {
				var logNs, means []float64
				for _, p := range points[bi*len(ns) : (bi+1)*len(ns)] {
					logNs = append(logNs, p.logN)
					means = append(means, p.mean)
				}
				if len(logNs) < 2 {
					continue
				}
				slope, intercept, r2, err := stats.LinearFit(logNs, means)
				if err != nil {
					return nil, err
				}
				t.AddNote("%s: mean latency = %.3f*log2(n) + %.3f ms (r^2 = %.3f); linearity in log n is the O(log n) latency bound",
					backend, slope, intercept, r2)
			}
			t.AddNote("latency = virtual time per sample; RPCs issue sequentially, so kademlia's alpha-parallel waves are charged serially here (an upper bound on its latency)")
			return t, nil
		},
	}
}

// expE26 measures sampling under asynchronous churn: joins, crashes and
// maintenance run as timed events on the discrete-event kernel,
// concurrent in virtual time with a sampler process, at a sweep of
// event rates. It reports the in-churn success/failure split and the
// post-churn uniformity — on Chord and on Kademlia, through the same
// generic driver.
func expE26() Experiment {
	return Experiment{
		ID:    "E26",
		Title: "Sampling under asynchronous churn at varying event rates (kernel-driven)",
		Claim: "failures grow as events outpace repair, yet uniformity over survivors is restored once churn stops",
		Run: func(cfg RunConfig) (*Table, error) {
			model, err := cfg.LatencyModel()
			if err != nil {
				return nil, err
			}
			t := &Table{
				ID:      "E26",
				Title:   "Asynchronous churn: in-flight sampling and post-churn uniformity (model " + model.Name() + ")",
				Claim:   "graceful degradation under concurrent topology change; chi-square recovers post-churn",
				Columns: []string{"backend", "meanGap_ms", "events", "stepErrs", "samplesOK", "estErrs", "sampleErrs", "postChi2p", "ringOK", "vtime_ms"},
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
			type result struct{ cells []string }
			results := make([]result, len(substrates)*len(gaps))
			err = forEach(cfg.workerCount(), len(results), func(idx int) error {
				sub := substrates[idx/len(gaps)]
				gap := gaps[idx%len(gaps)]
				seed := cfg.Seed ^ 0x26 ^ uint64(gap)
				rng := rand.New(rand.NewPCG(seed, seed+1))
				r, err := ring.Generate(rng, n)
				if err != nil {
					return err
				}
				k := sim.NewKernel(seed)
				tr := sim.NewTransport(
					sim.WithKernel(k),
					sim.WithModel(model),
					sim.WithStreamSeed(seed+2),
				)
				ov, d, err := buildOverlay(sub, tr, r.Points())
				if err != nil {
					return err
				}
				caller := r.At(0)
				driver, err := churn.NewDriver(ov, rand.New(rand.NewPCG(seed+3, seed+4)), churn.Config{
					Events:    events,
					Protected: map[ring.Point]bool{caller: true},
				})
				if err != nil {
					return err
				}
				run, err := driver.Schedule(k, churn.AsyncConfig{
					MeanInterval:        gap,
					MaintenanceInterval: 5 * time.Millisecond,
				}, nil)
				if err != nil {
					return err
				}
				// Several sampler processes run concurrently in virtual
				// time — clients do not take turns — each rebuilding its
				// sampler (a fresh size estimate) per draw, the honest
				// mode while the network size is changing.
				const samplers = 4
				var oks, estErrs, sampErrs int
				for w := 0; w < samplers; w++ {
					srng := rand.New(rand.NewPCG(seed+5+uint64(w), seed+6))
					k.Go("sampler", func() {
						for !run.Done() {
							s, err := core.New(d, d.Self(), srng, core.Config{})
							if err != nil {
								estErrs++
								if k.Sleep(time.Millisecond) != nil {
									return
								}
								continue
							}
							if _, err := s.Sample(); err != nil {
								sampErrs++
							} else {
								oks++
							}
						}
					})
				}
				k.Run()
				vtime := k.Now()
				// Settle synchronously, then measure uniformity over the
				// survivors with fresh owner indices.
				ov.Maintain(12, 16)
				ringOK := "yes"
				if err := ov.VerifyRing(); err != nil {
					ringOK = "no"
				}
				d.RefreshOwners()
				s, err := core.New(d, d.Self(), rand.New(rand.NewPCG(seed+99, seed+100)), core.Config{})
				if err != nil {
					return err
				}
				owners := d.Size()
				counts := make([]int64, owners)
				for i := 0; i < postSamples*owners; i++ {
					p, err := s.Sample()
					if err != nil {
						return err
					}
					if p.Owner >= 0 && p.Owner < owners {
						counts[p.Owner]++
					}
				}
				_, pvalue, err := stats.ChiSquareUniform(counts)
				if err != nil {
					return err
				}
				results[idx] = result{cells: []string{
					sub,
					fmtF(float64(gap) / float64(time.Millisecond)),
					fmtI(len(run.Events)),
					fmtI(run.StepErrors),
					fmtI(oks), fmtI(estErrs), fmtI(sampErrs),
					fmt.Sprintf("%.4f", pvalue),
					ringOK,
					fmtF(float64(vtime) / float64(time.Millisecond)),
				}}
				return nil
			})
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				if err := t.AddRow(r.cells...); err != nil {
					return nil, err
				}
			}
			t.AddNote("start n = %d; events are joins/crashes at exponential gaps, maintenance sweeps every 5ms run all nodes in parallel kernel processes, samples run concurrently in virtual time", n)
			t.AddNote("4 sampler processes draw concurrently; smaller gaps put more topology changes inside each in-flight sample — the paper's stable-ring assumption under stress")
			t.AddNote("estErrs are failed size estimates, sampleErrs failed draws; kademlia errors more than chord mid-churn because its h has no backup-route retry — a lookup touching a fresh crash aborts, where chord falls through its candidate list")
			return t, nil
		},
	}
}
