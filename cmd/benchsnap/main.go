// Command benchsnap records the batch-throughput perf trajectory: it
// runs the concurrent sampling engine over a million-peer oracle DHT at
// a sweep of worker counts, measures the virtual-clock transport's
// overhead against Direct on the Chord sampling hot path, and writes a
// JSON snapshot (committed as BENCH_<pr>.json at the repo root) so
// regressions and speedups are visible PR over PR.
//
// Usage:
//
//	benchsnap [-n 1000000] [-k 100000] [-workers 1,2,4,8] [-seed 1] [-o BENCH_1.json]
//	          [-overhead-n 1024] [-overhead-k 4000] [-overhead-reps 4]
//
// The drawn multiset is identical at every worker count (the engine
// forks per-block PCG streams), so every run measures the same work.
// The overhead measurement alternates direct/sim repetitions and keeps
// each side's minimum, which is robust to background noise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/overlays"
)

// Run is one timed configuration. NsPerSample and AllocsPerSample
// (heap allocations, measured from runtime.MemStats.Mallocs around the
// run, engine overhead included) record the per-sample constant factor
// next to the throughput, so the perf trajectory catches regressions
// in cost per op even when wall-clock noise hides them.
type Run struct {
	Workers         int     `json:"workers"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	SamplesPerSec   float64 `json:"samples_per_sec"`
	NsPerSample     float64 `json:"ns_per_sample"`
	AllocsPerSample float64 `json:"allocs_per_sample"`
	SpeedupVs1      float64 `json:"speedup_vs_1"`
}

// TransportOverhead compares the virtual-clock transport against
// Direct on the single-threaded Chord sampling hot path. The bound is
// absolute (~20 ns of extra work per RPC), not a percentage: speeding
// up the shared hot path shrinks the denominator.
type TransportOverhead struct {
	Peers             int     `json:"peers"`
	Samples           int     `json:"samples_per_rep"`
	Reps              int     `json:"reps"`
	Model             string  `json:"latency_model"`
	DirectNsPerSample float64 `json:"direct_ns_per_sample"`
	SimNsPerSample    float64 `json:"sim_ns_per_sample"`
	OverheadPct       float64 `json:"overhead_pct"`
}

// Snapshot is the committed benchmark record. The kernel, build, churn
// and E27 sections were added with the scenario-scale pass (BENCH_5),
// the adversary section with the fault-suite pass (BENCH_9), and the
// mem section with the flat-storage pass (BENCH_10), and the code
// section with the overlay-core pass (BENCH_16); earlier snapshots
// simply lack them.
type Snapshot struct {
	Benchmark  string             `json:"benchmark"`
	Date       time.Time          `json:"date"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Peers      int                `json:"peers"`
	Samples    int                `json:"samples_per_run"`
	Seed       uint64             `json:"seed"`
	Runs       []Run              `json:"runs"`
	Transport  *TransportOverhead `json:"transport_overhead,omitempty"`
	Kernel     *KernelBench       `json:"kernel,omitempty"`
	Builds     []BuildBench       `json:"builds,omitempty"`
	Churn      *ChurnBench        `json:"churn,omitempty"`
	E27        *E27Scale          `json:"e27,omitempty"`
	Mem        []MemBench         `json:"mem,omitempty"`
	SLO        []SLOBench         `json:"slo,omitempty"`
	Adversary  []AdversaryBench   `json:"adversary,omitempty"`
	Code       *CodeBench         `json:"code,omitempty"`
	Note       string             `json:"note,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 1_000_000, "network size")
		k        = fs.Int("k", 100_000, "samples per timed run")
		workers  = fs.String("workers", "1,2,4,8", "comma-separated worker counts")
		seed     = fs.Uint64("seed", 1, "placement and batch seed")
		out      = fs.String("o", "", "output path (default stdout)")
		overN    = fs.Int("overhead-n", 1024, "chord ring size for the transport-overhead measurement")
		overK    = fs.Int("overhead-k", 4000, "samples per transport-overhead repetition")
		overReps = fs.Int("overhead-reps", 4, "alternating repetitions per transport")
		pr3Ref   = fs.Float64("pr3-kernel-ns", 491.8, "PR-3 kernel ns/event reference (container/heap + channel handoffs, measured on the reference box)")
		buildCh  = fs.Int("build-chord-n", 1_000_000, "chord ring size for the construction benchmark")
		buildKad = fs.Int("build-kademlia-n", 1<<17, "kademlia network size for the construction benchmark")
		churnN   = fs.Int("churn-n", 256, "chord ring size for the async-churn rate measurement")
		churnEv  = fs.Int("churn-events", 2000, "async churn events to drive")
		e27N     = fs.Int("e27-n", 1_000_000, "chord network size for the E27 scenario run (0 disables)")
		e27Ev    = fs.Int("e27-events", 48, "churn events in the E27 scenario run")
		memCh    = fs.Int("mem-chord-n", 10_000_000, "chord ring size for the flat-storage capacity measurement (0 disables)")
		memKad   = fs.Int("mem-kademlia-n", 1<<21, "kademlia network size for the flat-storage capacity measurement (0 disables)")
		sloOn    = fs.Bool("slo", true, "run the E28 SLO scenarios (open-loop load under churn, both backends)")
		advOn    = fs.Bool("adversary", true, "run the adversarial scenarios (route-bias bias + eclipse capture, both backends)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 2
	}
	snap, err := measure(*n, *k, *seed, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	snap.Transport, err = measureOverhead(*overN, *overK, *overReps, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	snap.Kernel = measureKernel(*pr3Ref)
	snap.Builds, err = measureBuilds(*buildCh, *buildKad, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	snap.Churn, err = measureChurn(*churnN, *churnEv, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	if *e27N > 0 {
		snap.E27, err = measureE27(*e27N, *e27Ev, 200, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			return 1
		}
	}
	if *memCh > 0 || *memKad > 0 {
		snap.Mem, err = measureMem(*memCh, *memKad, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			return 1
		}
	}
	if *sloOn {
		snap.SLO, err = measureSLO(overlays.Names, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			return 1
		}
	}
	if *advOn {
		snap.Adversary, err = measureAdversary(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			return 1
		}
	}
	if root, err := moduleRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap: code section left out:", err)
	} else if snap.Code, err = measureCode(root); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %s\n", *out)
	return 0
}

func parseWorkers(spec string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return ws, nil
}

// warmup is how long measure samples, untimed, before the timed sweep.
const warmup = 5 * time.Second

func measure(n, k int, seed uint64, ws []int) (*Snapshot, error) {
	fmt.Fprintf(os.Stderr, "benchsnap: building %d-peer oracle testbed...\n", n)
	tb, err := randompeer.New(randompeer.WithPeers(n), randompeer.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	s, err := tb.UniformSampler(seed + 1)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// Warm up before timing: caches, the ring's pages, and the machine.
	// On the virtual reference box the second vCPU runs beside the first
	// only after the process has been busy for three to four seconds
	// (idle for a minute and it is gone again); a sweep timed inside that
	// window reads two workers no faster than one whatever the code does.
	for start := time.Now(); time.Since(start) < warmup; {
		if _, err := tb.SampleN(ctx, s, k, randompeer.WithTallyOnly()); err != nil {
			return nil, err
		}
	}
	snap := &Snapshot{
		Benchmark:  "batch-throughput",
		Date:       time.Now().UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Peers:      n,
		Samples:    k,
		Seed:       seed,
	}
	var base float64
	for _, w := range ws {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := tb.SampleN(ctx, s, k,
			randompeer.WithWorkers(w),
			randompeer.WithBatchSeed(seed+2),
			randompeer.WithTallyOnly(),
		)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		rate := float64(k) / res.Elapsed.Seconds()
		r := Run{
			Workers:         w,
			ElapsedMS:       float64(res.Elapsed.Microseconds()) / 1000,
			SamplesPerSec:   rate,
			NsPerSample:     float64(res.Elapsed.Nanoseconds()) / float64(k),
			AllocsPerSample: float64(after.Mallocs-before.Mallocs) / float64(k),
		}
		if base == 0 {
			base = rate
		}
		r.SpeedupVs1 = rate / base
		snap.Runs = append(snap.Runs, r)
		fmt.Fprintf(os.Stderr, "benchsnap: workers=%d  %.0f samples/sec  %.0f ns/sample  %.4f allocs/sample  (%.2fx)\n",
			w, rate, r.NsPerSample, r.AllocsPerSample, r.SpeedupVs1)
	}
	if snap.GOMAXPROCS < ws[len(ws)-1] {
		snap.Note = fmt.Sprintf("machine exposes only %d CPU(s); worker counts beyond that cannot speed up this CPU-bound workload", snap.GOMAXPROCS)
	}
	return snap, nil
}

// measureOverhead times single-threaded Chord sampling over Direct and
// over the virtual-clock transport (constant 1ms model, the E25
// default), alternating repetitions and keeping each side's minimum.
func measureOverhead(n, k, reps int, seed uint64) (*TransportOverhead, error) {
	const modelSpec = "constant:1ms"
	model, err := randompeer.ParseLatencyModel(modelSpec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchsnap: measuring sim-transport overhead on a %d-peer chord ring...\n", n)
	timeOne := func(simTime bool) (float64, error) {
		opts := []randompeer.Option{
			randompeer.WithPeers(n),
			randompeer.WithSeed(seed),
			randompeer.WithBackend(randompeer.ChordBackend),
		}
		if simTime {
			opts = append(opts, randompeer.WithLatencyModel(model))
		}
		tb, err := randompeer.New(opts...)
		if err != nil {
			return 0, err
		}
		s, err := tb.UniformSampler(seed + 1)
		if err != nil {
			return 0, err
		}
		// Warm up before timing.
		for i := 0; i < k/10; i++ {
			if _, err := s.Sample(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < k; i++ {
			if _, err := s.Sample(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(k), nil
	}
	minDirect, minSim := 0.0, 0.0
	for rep := 0; rep < reps; rep++ {
		d, err := timeOne(false)
		if err != nil {
			return nil, err
		}
		s, err := timeOne(true)
		if err != nil {
			return nil, err
		}
		if minDirect == 0 || d < minDirect {
			minDirect = d
		}
		if minSim == 0 || s < minSim {
			minSim = s
		}
	}
	o := &TransportOverhead{
		Peers: n, Samples: k, Reps: reps, Model: modelSpec,
		DirectNsPerSample: minDirect,
		SimNsPerSample:    minSim,
		OverheadPct:       (minSim/minDirect - 1) * 100,
	}
	fmt.Fprintf(os.Stderr, "benchsnap: direct %.0f ns/sample, sim %.0f ns/sample (%.2f%% overhead)\n",
		minDirect, minSim, o.OverheadPct)
	return o, nil
}
