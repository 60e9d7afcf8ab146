package randompeer

// Benchmark harness: one testing.B benchmark per experiment table or
// figure series of the reproduction (see DESIGN.md section 4 for the
// experiment index). Run all of them with:
//
//	go test -bench=. -benchmem
//
// The benchmarks time the operations the corresponding experiment
// measures; the experiment harness (cmd/experiments) produces the
// actual tables.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/agreement"
	"github.com/dht-sampling/randompeer/internal/arcs"
	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/biased"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/collect"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/loadbalance"
	"github.com/dht-sampling/randompeer/internal/randgraph"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// benchOracle builds an oracle DHT of size n for benchmarks.
func benchOracle(b *testing.B, n int) *dht.Oracle {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 0xbe7c))
	o, err := dht.GenerateOracle(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

func benchRing(b *testing.B, n int) *ring.Ring {
	b.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 0x417c))
	r, err := ring.Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkUniformSample is the headline single-sample benchmark: one
// King–Saia uniform sample over the oracle backend at n=16384. It is
// the per-op cost the batch engine parallelizes; CI runs it on every
// push as the perf-trajectory anchor.
func BenchmarkUniformSample(b *testing.B) {
	o := benchOracle(b, 16384)
	rng := rand.New(rand.NewPCG(20, 20))
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchScaling measures Testbed.SampleN at one and two workers
// on every backend, reporting samples/sec: n = 10^6 on the oracle, the
// repository benchmark's n = 16384 on the overlays. On the oracle each
// block's exclusive fork runs on the oracle's trial runner, which sums
// its cost privately until the sample returns, so the workers share no
// meter line (only the batch's one tally, a write a sample) and the
// two-worker rate is close to twice the one-worker rate on a two-core
// machine. The overlays sum nothing privately:
// every RPC charges the shared meter, but it resolves its destination
// with atomic loads and no lock, so workers scale there too (chord at
// n = 16384 on a 2-vCPU box: about 43k samples/sec at one worker, 63k
// at two). The committed
// number is the repository benchmark's engine.speedup_wN on
// oracle-batch-1m, which cmd/benchsnap copies into BENCH_<pr>.json's
// ledger and cmd/benchdiff holds at 1.5 or more.
//
// k must stay well above workers*engine.DefaultBlockSize — the engine
// clamps workers to the block count, so a small batch would silently
// measure fewer workers than the sub-benchmark name claims — and, on the
// oracle, large enough that drawing samples, not zeroing the batch's
// million-owner tally, dominates each op.
func BenchmarkBatchScaling(b *testing.B) {
	for _, tc := range []struct {
		backend Backend
		n, k    int
	}{
		{OracleBackend, 1_000_000, 1 << 16},
		{ChordBackend, 16384, 1 << 14},
		{KademliaBackend, 16384, 1 << 14},
	} {
		b.Run(tc.backend.String(), func(b *testing.B) {
			tb, err := New(WithPeers(tc.n), WithSeed(21), WithBackend(tc.backend))
			if err != nil {
				b.Fatal(err)
			}
			s, err := tb.UniformSampler(21)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, err := tb.SampleN(context.Background(), s, tc.k,
							WithWorkers(w), WithBatchSeed(uint64(i)), WithTallyOnly())
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(tc.k)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
				})
			}
		})
	}
}

// BenchmarkChooseRandomPeer (E1): one uniform sample over the oracle
// backend across network sizes.
func BenchmarkChooseRandomPeer(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			o := benchOracle(b, n)
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleCostChord (E2): one uniform sample over a real Chord
// ring, paying genuine O(log n) lookup RPCs.
func BenchmarkSampleCostChord(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRing(b, n)
			net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
			if err != nil {
				b.Fatal(err)
			}
			d, err := net.AsDHT(r.At(0))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(2, uint64(n)))
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampleCostKademlia (E24): one uniform sample over a real
// Kademlia overlay, paying genuine iterative FIND_NODE lookups.
func BenchmarkSampleCostKademlia(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRing(b, n)
			net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), r.Points())
			if err != nil {
				b.Fatal(err)
			}
			d, err := net.AsDHT(r.At(0))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(2, uint64(n)))
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKademliaLookup: the h primitive on the Kademlia overlay —
// an alpha-parallel iterative FIND_NODE plus the O(1) clockwise-owner
// verification — up to the repository benchmark's n = 16384, with the
// RPC count from the meter so that a faster lookup can be told from a
// shorter one.
func BenchmarkKademliaLookup(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRing(b, n)
			net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), r.Points())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(10, uint64(n)))
			before := net.Meter().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := net.ResolveOwner(r.At(0), ring.Point(rng.Uint64())); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cost := net.Meter().Snapshot().Sub(before)
			b.ReportMetric(float64(cost.Calls)/float64(b.N), "rpcs/lookup")
		})
	}
}

// BenchmarkLookupCostBackends (E24): the per-lookup t_h/m_h comparison
// across all three substrates at n=16384, reported as rpcs/lookup and
// msgs/lookup metrics next to wall-clock time. This is the committed
// cross-backend cost benchmark: the oracle charges the synthetic
// textbook cost, Chord pays finger hops, Kademlia pays k-close
// alpha-parallel FIND_NODE waves plus an O(1) ring verification.
func BenchmarkLookupCostBackends(b *testing.B) {
	const n = 16384
	for _, backend := range Backends() {
		b.Run(backend.String(), func(b *testing.B) {
			tb, err := New(WithPeers(n), WithSeed(15), WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			d := tb.DHT()
			rng := rand.New(rand.NewPCG(16, uint64(n)))
			before := d.Meter().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.H(ring.Point(rng.Uint64())); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cost := d.Meter().Snapshot().Sub(before)
			b.ReportMetric(float64(cost.Calls)/float64(b.N), "rpcs/lookup")
			b.ReportMetric(float64(cost.Messages)/float64(b.N), "msgs/lookup")
		})
	}
}

// BenchmarkEstimateN (E3): the size-estimation walk.
func BenchmarkEstimateN(b *testing.B) {
	for _, c1 := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("c1=%v", c1), func(b *testing.B) {
			o := benchOracle(b, 16384)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateN(o, o.PeerByIndex(i%o.Size()), c1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLemma1 (E4): the successor-arc bound check over a full ring.
func BenchmarkLemma1(b *testing.B) {
	r := benchRing(b, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcs.CheckLemma1(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLemma2 (E5): the anchored-interval concentration check.
func BenchmarkLemma2(b *testing.B) {
	r := benchRing(b, 4096)
	params := arcs.Lemma2Params{C: 8, Alpha1: 1, Alpha2: 3, Eps: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcs.CheckLemma2(r, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLemma4 (E6): the sliding-window peerless-interval sum check.
func BenchmarkLemma4(b *testing.B) {
	r := benchRing(b, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcs.CheckLemma4(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtremes (E7): arc-extreme statistics.
func BenchmarkExtremes(b *testing.B) {
	r := benchRing(b, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arcs.Extremes(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveSample (E8): the biased heuristic (one lookup).
func BenchmarkNaiveSample(b *testing.B) {
	o := benchOracle(b, 16384)
	s := baseline.NewNaive(o, rand.New(rand.NewPCG(3, 3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerComparison (E9/E10): one sample from each strategy at
// equal network size.
func BenchmarkSamplerComparison(b *testing.B) {
	const n = 16384
	o := benchOracle(b, n)
	rng := rand.New(rand.NewPCG(4, 4))
	ks, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	graph := baseline.NewOracleGraph(o)
	walk, err := baseline.NewWalk(o, graph, o.PeerByIndex(0), int(math.Log2(n)), rng)
	if err != nil {
		b.Fatal(err)
	}
	samplers := []dht.Sampler{ks, baseline.NewNaive(o, rng), walk}
	for _, s := range samplers {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolling (E11): a 100-sample mean poll.
func BenchmarkPolling(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewPCG(5, 5))
	r, err := ring.Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	o := dht.NewOracle(r)
	pop, err := collect.ArcCorrelated(r)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect.PollMean(s, pop, 100, 1.96); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandGraph (E12): building a 1000-node, 5-links graph and
// measuring its giant component after 30% adversarial deletion.
func BenchmarkRandGraph(b *testing.B) {
	const n, k = 1000, 5
	o := benchOracle(b, n)
	rng := rand.New(rand.NewPCG(6, 6))
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := randgraph.Build(s, n, k)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.DeleteAdversarial(0.3); err != nil {
			b.Fatal(err)
		}
		_ = g.LargestComponentFraction()
	}
}

// BenchmarkLoadBalance (E13): assigning n tasks to n peers.
func BenchmarkLoadBalance(b *testing.B) {
	const n = 1024
	o := benchOracle(b, n)
	rng := rand.New(rand.NewPCG(7, 7))
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadbalance.Assign(s, n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommittees (E14): electing one 64-seat committee.
func BenchmarkCommittees(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewPCG(8, 8))
	r, err := ring.Generate(rng, n)
	if err != nil {
		b.Fatal(err)
	}
	o := dht.NewOracle(r)
	bad, _, err := agreement.LongestArcAttack(r, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agreement.ElectCommittees(s, func(owner int) bool { return bad[owner] }, 64, 1, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnEvent (E15): one churn event (join or crash) plus its
// maintenance rounds on a live Chord ring.
func BenchmarkChurnEvent(b *testing.B) {
	r := benchRing(b, 128)
	net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	d, err := churn.NewDriver(churn.Chord(net), rng, churn.Config{Events: 1 << 30, RoundsPerEvent: 2})
	if err != nil {
		b.Fatal(err)
	}
	_ = d
	b.ResetTimer()
	// Drive single events by constructing one-event drivers repeatedly
	// over the same network (the network keeps evolving).
	for i := 0; i < b.N; i++ {
		one, err := churn.NewDriver(churn.Chord(net), rng, churn.Config{Events: 1, RoundsPerEvent: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := one.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStepFactor (E16): the exact analyzer at the paper's
// walk bound versus a truncated bound.
func BenchmarkAblationStepFactor(b *testing.B) {
	r := benchRing(b, 4096)
	for _, factor := range []float64{1, 6} {
		params, err := core.DeriveParams(float64(r.Len()), 1, factor)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("factor=%v", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(r, params.Lambda, params.MaxSteps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyze (E17): the exact Theorem 6 verification across sizes.
func BenchmarkAnalyze(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRing(b, n)
			params, err := core.DeriveParams(float64(n), 1, 6)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Analyze(r, params.Lambda, params.MaxSteps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBiasedSample (E18): one inverse-distance biased sample
// (rejection over the uniform sampler).
func BenchmarkBiasedSample(b *testing.B) {
	const n = 4096
	o := benchOracle(b, n)
	rng := rand.New(rand.NewPCG(11, 11))
	uniform, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	w, maxW, err := biased.InverseDistance(o.PeerByIndex(0), 0.05)
	if err != nil {
		b.Fatal(err)
	}
	s, err := biased.New(uniform, w, maxW, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetropolisSample (E19): one degree-corrected walk sample on
// the symmetrized overlay.
func BenchmarkMetropolisSample(b *testing.B) {
	const n = 4096
	o := benchOracle(b, n)
	g := baseline.NewUndirectedOracleGraph(o)
	rng := rand.New(rand.NewPCG(12, 12))
	s, err := baseline.NewMetropolisWalk(o, g, o.PeerByIndex(0), 4*int(math.Log2(n)), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoSample: the deployment wrapper (includes periodic
// re-estimation).
func BenchmarkAutoSample(b *testing.B) {
	const n = 4096
	o := benchOracle(b, n)
	rng := rand.New(rand.NewPCG(13, 13))
	s, err := core.NewAuto(o, o.PeerByIndex(0), rng, core.Config{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordPutGet (E20 substrate): one replicated Put plus one Get
// over the real Chord ring.
func BenchmarkChordPutGet(b *testing.B) {
	r := benchRing(b, 256)
	net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(14, 14))
	from := r.At(0)
	value := []byte("benchmark-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ring.Point(rng.Uint64())
		if err := net.Put(from, key, value, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Get(from, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordLookup: the underlying h primitive on the real Chord
// ring (the t_h = O(log n) the paper assumes).
func BenchmarkChordLookup(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchRing(b, n)
			net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(10, uint64(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Lookup(r.At(0), ring.Point(rng.Uint64())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimTransportOverhead (E25): the cost of the virtual-clock
// transport on the sampling hot path. Each sub-benchmark draws uniform
// samples over the same static Chord ring; "direct" uses the plain
// synchronous transport, "sim" the discrete-event transport in
// free-running mode (latency draw + clock advance + histogram record
// per RPC). The acceptance bound is absolute — on the order of 20 ns
// of extra work per RPC — rather than a percentage: the PR 4 hot-path
// pass sped up both transports but direct more, so the ratio (the
// transport_overhead section of BENCH_3 to BENCH_19) grew from 8.4% to
// ~16% even though the simulation machinery itself got cheaper per
// RPC. Since BENCH_21 the per-call figures are the repository
// benchmark's simnet.self_ns_per_call and sim.self_ns_per_call.
func BenchmarkSimTransportOverhead(b *testing.B) {
	const n = 1024
	transports := map[string]func() simnet.Transport{
		"direct": func() simnet.Transport { return simnet.NewDirect() },
		"sim": func() simnet.Transport {
			return sim.NewTransport(sim.WithModel(sim.Constant{RTT: time.Millisecond}))
		},
	}
	for _, name := range []string{"direct", "sim"} {
		b.Run(name, func(b *testing.B) {
			r := benchRing(b, n)
			net, err := chord.BuildStatic(chord.Config{}, transports[name](), r.Points())
			if err != nil {
				b.Fatal(err)
			}
			d, err := net.AsDHT(r.At(0))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(2, n))
			s, err := core.New(d, d.Self(), rng, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelEventLoop: the raw discrete-event scheduling cost, the
// floor under every kernel-mode simulation, across the kernel's three
// dispatch paths:
//
//   - proc: one process sleeping through b.N events. With nothing else
//     queued every sleep takes the run-to-completion fast path — no
//     heap operation, no channel handoff — which is the common shape of
//     a simulation dominated by one active process at a time. The PR-3
//     kernel paid two channel handoffs plus a container/heap push+pop
//     here (~492 ns/event on the reference box).
//   - callback: a self-reposting Post callback — a pure timer chain
//     through the 4-ary queue with zero channel operations.
//   - proc-interleaved: two processes strictly alternating, forcing the
//     full coroutine yield/resume handoff on every event — the worst
//     case, and the closest analogue of the PR-3 per-event cost.
func BenchmarkKernelEventLoop(b *testing.B) {
	b.Run("proc", func(b *testing.B) {
		k := sim.NewKernel(1)
		k.Go("sleeper", func() {
			for i := 0; i < b.N; i++ {
				if k.Sleep(time.Microsecond) != nil {
					return
				}
			}
		})
		b.ResetTimer()
		k.Run()
	})
	b.Run("callback", func(b *testing.B) {
		k := sim.NewKernel(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				k.Post(time.Microsecond, "tick", tick)
			}
		}
		k.Post(time.Microsecond, "tick", tick)
		b.ResetTimer()
		k.Run()
	})
	b.Run("proc-interleaved", func(b *testing.B) {
		k := sim.NewKernel(1)
		for p := 0; p < 2; p++ {
			k.Go("sleeper", func() {
				for i := 0; i < (b.N+1)/2; i++ {
					if k.Sleep(time.Microsecond) != nil {
						return
					}
				}
			})
		}
		b.ResetTimer()
		k.Run()
	})
}

// BenchmarkBuildStatic: bulk overlay construction cost per backend —
// the start-up price of every large scenario. Construction shards
// per-node routing state over GOMAXPROCS workers (bit-identical at any
// worker count), so ns/op here scales down with cores.
func BenchmarkBuildStatic(b *testing.B) {
	const n = 1 << 14
	r := benchRing(b, n)
	points := r.Points()
	b.Run("chord", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), points); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kademlia", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), points); err != nil {
				b.Fatal(err)
			}
		}
	})
}
