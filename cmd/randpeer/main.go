// Command randpeer is an interactive driver for the King–Saia random
// peer selection algorithm on a simulated DHT.
//
// Usage:
//
//	randpeer sample   [-n N] [-seed S] [-k K] [-workers W] [-sampler king-saia|naive|swap] [-backend oracle|chord|kademlia] [-latency MODEL]
//	                  [-drop-rate P] [-partition F] [-adversary KIND:FRAC]
//	randpeer estimate [-n N] [-seed S] [-c1 C] [-callers K]
//	randpeer verify   [-n N] [-seed S]
//	randpeer arcs     [-n N] [-seed S]
//
// sample draws K peers across W workers (the batch engine keeps the
// drawn multiset identical at any worker count) and prints the tally
// summary; with -latency (e.g. constant:1ms, uniform:500us-5ms,
// lognormal:2ms,0.6, straggler:0.1,8,constant:1ms) the testbed runs on
// simulated time and the summary adds per-RPC and per-sample virtual
// latencies. estimate runs the paper's size estimator from K callers;
// verify computes the exact Theorem 6 measure partition; arcs prints
// the structural statistics (Lemmas 1 and 4, Theorem 8).
//
// The fault flags (chord/kademlia backends only) exercise the sampler
// under injected failures and Byzantine subversion: -drop-rate drops
// each RPC with probability P, -partition cuts a random fraction F of
// peers off from the caller's side of the network, and -adversary arms
// a seeded Byzantine attack — one of route-bias:F, eclipse:F or
// censor:F with F the subverted fraction of the membership (e.g.
// -adversary route-bias:0.2). Under any fault flag the batch loop
// tolerates per-sample failures and reports the failure rate next to
// the bias of what survived; -sampler swap selects the PeerSwap-style
// audited sampler, the mitigation E29 measures against route-bias.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/arcs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "sample":
		err = cmdSample(args[1:])
	case "estimate":
		err = cmdEstimate(args[1:])
	case "verify":
		err = cmdVerify(args[1:])
	case "arcs":
		err = cmdArcs(args[1:])
	case "help", "-h", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "randpeer: unknown command %q\n", args[0])
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "randpeer:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: randpeer <command> [flags]

commands:
  sample    draw K random peers and summarize the tally
  estimate  run the Estimate n algorithm from K callers
  verify    compute the exact Theorem 6 measure partition
  arcs      print structural ring statistics (Lemmas 1, 4; Theorem 8)`)
}

func newTestbed(n int, seed uint64, backend, latency string) (*randompeer.Testbed, error) {
	b, err := randompeer.ParseBackend(backend)
	if err != nil {
		return nil, err
	}
	opts := []randompeer.Option{
		randompeer.WithPeers(n),
		randompeer.WithSeed(seed),
		randompeer.WithBackend(b),
	}
	if latency != "" {
		model, err := randompeer.ParseLatencyModel(latency)
		if err != nil {
			return nil, err
		}
		opts = append(opts, randompeer.WithLatencyModel(model))
	}
	return randompeer.New(opts...)
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 1024, "network size")
		seed     = fs.Uint64("seed", 1, "placement seed")
		k        = fs.Int("k", 10000, "samples to draw")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel sampling workers")
		sampler  = fs.String("sampler", "king-saia", "king-saia, naive or swap (audited mitigation)")
		backend  = fs.String("backend", "oracle", "DHT substrate: "+randompeer.BackendNames())
		latency  = fs.String("latency", "", "latency model for simulated time (e.g. constant:1ms); empty = off")
		trace    = fs.Bool("trace", false, "after the batch, trace one sample hop-by-hop (chord/kademlia backends)")
		dropRate = fs.Float64("drop-rate", 0, "drop each RPC with this probability (transport backends)")
		partFrac = fs.Float64("partition", 0, "cut this fraction of peers off from the caller's side (transport backends)")
		advSpec  = fs.String("adversary", "", "arm a Byzantine attack, kind:fraction with kind one of "+
			strings.Join(randompeer.AdversaryKinds(), ", ")+" (e.g. route-bias:0.2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finite(fs, "drop-rate", "partition"); err != nil {
		return err
	}
	tb, err := newTestbed(*n, *seed, *backend, *latency)
	if err != nil {
		return err
	}
	var s randompeer.Sampler
	switch *sampler {
	case "king-saia":
		s, err = tb.UniformSampler(*seed + 1)
		if err != nil {
			return err
		}
	case "naive":
		s = tb.NaiveSampler(*seed + 1)
	case "swap":
		s, err = tb.SwapSampler(*seed+1, 2)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown sampler %q", *sampler)
	}
	faulty := *dropRate > 0 || *partFrac > 0 || *advSpec != ""
	if *dropRate > 0 {
		plan := tb.FaultPlan()
		if plan == nil {
			return fmt.Errorf("-drop-rate needs a transport backend (chord or kademlia), not %s", *backend)
		}
		plan.SetDropRate(*dropRate)
		fmt.Printf("faults:    dropping each RPC with probability %v\n", *dropRate)
	}
	if *partFrac > 0 {
		if err := tb.PartitionFraction("cli", *partFrac, *seed+7); err != nil {
			return err
		}
		fmt.Printf("faults:    partitioned a random %v of peers away from the caller\n", *partFrac)
	}
	if *advSpec != "" {
		// The swap sampler's audit vantages are assumed honest by the
		// threat model; keep them out of the coalition.
		var exclude []int
		if *sampler == "swap" {
			exclude = tb.SwapVantages(2)
		}
		adv, err := tb.InstallAdversary(*advSpec, *seed+9, exclude...)
		if err != nil {
			return err
		}
		fmt.Printf("faults:    %s adversary subverting %d of %d peers\n", adv.Kind(), adv.NumNodes(), tb.Size())
	}
	if faulty {
		// Injected faults make individual samples fail by design; the
		// deterministic batch engine treats any error as fatal, so run a
		// failure-tolerant loop instead and report the failure rate.
		return sampleTolerant(tb, s, *k, *backend)
	}
	res, err := tb.SampleN(context.Background(), s, *k,
		randompeer.WithWorkers(*workers),
		randompeer.WithBatchSeed(*seed+1),
		randompeer.WithTallyOnly(),
	)
	if err != nil {
		return err
	}
	stat, pvalue, err := stats.ChiSquareUniform(res.Tally)
	if err != nil {
		return err
	}
	tvd, err := stats.TotalVariationUniform(res.Tally)
	if err != nil {
		return err
	}
	persec := float64(*k) / res.Elapsed.Seconds()
	fmt.Printf("sampler:   %s over %d peers (%s backend)\n", s.Name(), tb.Size(), *backend)
	fmt.Printf("samples:   %d (%d workers, deterministic=%v)\n", *k, res.Workers, res.Deterministic)
	fmt.Printf("chi2:      %.2f (p = %.4f)  [p >= 0.05 is consistent with uniform]\n", stat, pvalue)
	fmt.Printf("tvd:       %.4f\n", tvd)
	fmt.Printf("cost:      %.1f RPCs and %.1f messages per sample\n",
		float64(res.Cost.Calls)/float64(*k), float64(res.Cost.Messages)/float64(*k))
	if e := res.Effort; e.Trials > 0 {
		// The paper's cost model: one sample = trials x (h + next walk).
		fmt.Printf("effort:    %.2f trials (%.2f pruned at the horizon) and %.1f next steps per sample\n",
			float64(e.Trials)/float64(*k), float64(e.Pruned)/float64(*k), float64(e.Steps)/float64(*k))
	}
	if tb.SimTime() {
		lat := tb.Latency()
		fmt.Printf("latency:   model %s; per RPC mean %v p50 %v p99 %v\n",
			tb.LatencyModel().Name(), lat.Mean().Round(time.Microsecond),
			lat.Quantile(0.5).Round(time.Microsecond), lat.Quantile(0.99).Round(time.Microsecond))
		fmt.Printf("vtime:     %v total virtual time (%v per sample, sequential)\n",
			tb.VirtualTime().Round(time.Millisecond),
			(tb.VirtualTime() / time.Duration(*k)).Round(time.Microsecond))
	}
	fmt.Printf("rate:      %.0f samples/sec (%v elapsed)\n", persec, res.Elapsed.Round(time.Microsecond))
	if *trace {
		return printTrace(tb, s)
	}
	return nil
}

// sampleTolerant draws k samples sequentially, tolerating per-sample
// failures (dropped RPCs, partitioned routes, exhausted swap audits)
// and summarizing the bias of the samples that survived.
func sampleTolerant(tb *randompeer.Testbed, s randompeer.Sampler, k int, backend string) error {
	tally := make([]int64, tb.Size())
	fails := 0
	start := time.Now()
	for i := 0; i < k; i++ {
		p, err := s.Sample()
		if err != nil {
			fails++
			continue
		}
		tally[p.Owner]++
	}
	elapsed := time.Since(start)
	fmt.Printf("sampler:   %s over %d peers (%s backend, fault-tolerant loop)\n", s.Name(), tb.Size(), backend)
	fmt.Printf("samples:   %d attempted, %d failed (rate %.4f)\n", k, fails, float64(fails)/float64(k))
	if fails == k {
		fmt.Println("verdict:   no sample survived the injected faults")
		return nil
	}
	stat, pvalue, err := stats.ChiSquareUniform(tally)
	if err != nil {
		return err
	}
	tvd, err := stats.TotalVariationUniform(tally)
	if err != nil {
		return err
	}
	fmt.Printf("chi2:      %.2f (p = %.4f)  [p >= 0.05 is consistent with uniform]\n", stat, pvalue)
	fmt.Printf("tvd:       %.4f  [bias of the surviving samples]\n", tvd)
	fmt.Printf("rate:      %.0f samples/sec (%v elapsed)\n", float64(k)/elapsed.Seconds(), elapsed.Round(time.Microsecond))
	return nil
}

// printTrace draws one extra sample with hop tracing armed and prints
// the hop-by-hop record plus its reconciliation against the meter.
func printTrace(tb *randompeer.Testbed, s randompeer.Sampler) error {
	meter := tb.DHT().Meter()
	before := meter.Snapshot()
	reporter, _ := s.(interface{ Stats() randompeer.Effort })
	var effort0 randompeer.Effort
	if reporter != nil {
		effort0 = reporter.Stats()
	}
	peer, tr, err := tb.TraceSample(s)
	if err != nil {
		return err
	}
	charged := meter.Snapshot().Sub(before).Calls
	fmt.Printf("trace:     id %#x drew owner %d (point %#x): %d hops, %d ok, meter charged %d calls\n",
		tr.ID(), peer.Owner, uint64(peer.Point), tr.Len(), tr.OKHops(), charged)
	if reporter != nil {
		e := reporter.Stats()
		fmt.Printf("           %d trials (%d pruned at the horizon), %d next steps\n",
			e.Trials-effort0.Trials, e.Pruned-effort0.Pruned, e.Steps-effort0.Steps)
	}
	for _, h := range tr.Hops() {
		lat, unit := time.Duration(h.WallNanos), "wall"
		if tb.SimTime() {
			lat, unit = time.Duration(h.VirtualNanos), "virtual"
		}
		fmt.Printf("  hop %2d: %016x -> %016x  %-30s %-8s %v %s\n",
			h.Index, h.From, h.To, h.RPC, h.Outcome, lat, unit)
	}
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 4096, "network size")
		seed    = fs.Uint64("seed", 1, "placement seed")
		c1      = fs.Float64("c1", 2, "walk-length constant")
		callers = fs.Int("callers", 16, "number of peers that estimate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finite(fs, "c1"); err != nil {
		return err
	}
	tb, err := newTestbed(*n, *seed, "oracle", "")
	if err != nil {
		return err
	}
	fmt.Printf("true n = %d, c1 = %v\n", *n, *c1)
	ratios := make([]float64, 0, *callers)
	for i := 0; i < *callers; i++ {
		caller := i * tb.Size() / *callers
		res, err := tb.EstimateSize(caller, *c1)
		if err != nil {
			return err
		}
		ratio := res.NHat / float64(*n)
		ratios = append(ratios, ratio)
		fmt.Printf("  caller %5d: nhat1 = %10.1f  s = %3d  nhat = %10.1f  ratio = %.3f\n",
			caller, res.NHat1, res.S, res.NHat, ratio)
	}
	s := stats.Summarize(ratios)
	fmt.Printf("ratio nhat/n: min %.3f  mean %.3f  max %.3f  (Lemma 3 band: 0.286 .. 6)\n",
		s.Min, s.Mean, s.Max)
	return nil
}

// finite rejects NaN and infinite values of the named float flags:
// every "> 0" test would read NaN as off, and every bound derived from
// one is meaningless.
func finite(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(float64); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("-%s must be finite, got %v", name, v)
		}
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var (
		n    = fs.Int("n", 4096, "network size")
		seed = fs.Uint64("seed", 1, "placement seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tb, err := newTestbed(*n, *seed, "oracle", "")
	if err != nil {
		return err
	}
	a, err := tb.VerifyUniformity(0)
	if err != nil {
		return err
	}
	fmt.Printf("exact Theorem 6 verification over %d peers:\n", tb.Size())
	fmt.Printf("  lambda:              %d units (1/(7n) of the circle)\n", a.Lambda)
	fmt.Printf("  walk bound:          %d steps (6 ln n')\n", a.MaxSteps)
	fmt.Printf("  max |measure-lambda|: %d units (relative %.3e)\n",
		a.MaxDeviation, float64(a.MaxDeviation)/float64(a.Lambda))
	fmt.Printf("  trial success prob:  %.4f (= n*lambda = n/(7*nhat))\n", a.SuccessProbability)
	fmt.Println("  verdict: every peer owns measure exactly lambda up to integer rounding")
	return nil
}

func cmdArcs(args []string) error {
	fs := flag.NewFlagSet("arcs", flag.ContinueOnError)
	var (
		n    = fs.Int("n", 4096, "network size")
		seed = fs.Uint64("seed", 1, "placement seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(*seed, *seed^0xdeadbeef))
	r, err := ring.Generate(rng, *n)
	if err != nil {
		return err
	}
	l1, err := arcs.CheckLemma1(r)
	if err != nil {
		return err
	}
	l4, err := arcs.CheckLemma4(r)
	if err != nil {
		return err
	}
	ext, err := arcs.Extremes(r)
	if err != nil {
		return err
	}
	fmt.Printf("ring of %d uniformly placed peers (seed %d)\n", *n, *seed)
	fmt.Printf("Lemma 1:   ln(1/arc) in [%.2f, %.2f], bounds [%.2f, %.2f], violations %d\n",
		l1.MinLogInv, l1.MaxLogInv, l1.LowerBound, l1.UpperBound, l1.Violations)
	fmt.Printf("Lemma 4:   min %d-window sum %.3e vs threshold %.3e, violations %d\n",
		l4.Window, l4.MinSumFrac, l4.Threshold, l4.Violations)
	fmt.Printf("Theorem 8: min arc %.3e (n^2-scaled %.2f), max arc %.3e ((n/ln n)-scaled %.2f)\n",
		ext.MinArcFrac, ext.MinScaled, ext.MaxArcFrac, ext.MaxScaled)
	fmt.Printf("naive bias ratio max/min = %.0f (= %.2f of n ln n)\n", ext.BiasRatio, ext.BiasVsNLogN)
	return nil
}
