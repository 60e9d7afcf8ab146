package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dht-sampling/randompeer/internal/stats"
)

// values holds one pass's metrics by their BENCHMARK.json names.
type values map[string]float64

// env is what a workload is given: the seed its inputs derive from and
// how much to measure — a timed window of seconds, or exactly ops
// operations when ops > 0 (fixed counts make the exact-count metrics
// repeat bit for bit, which the smoke test relies on).
type env struct {
	seed    uint64
	seconds float64
	ops     int
	root    string
}

// outcome is what a workload hands back: operations attempted and
// failed, the pass's metric values, header notes, and every output
// check that did not hold.
type outcome struct {
	attempted, failed int64
	vals              values
	notes             []string
	violations        []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) violatef(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	run, trace func(env) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"oracle-batch-1m":        {runOracleBatch, traceOracleBatch},
	"chord-direct-16k":       {direct{"chord"}.run, direct{"chord"}.trace},
	"kademlia-direct-16k":    {direct{"kademlia"}.run, direct{"kademlia"}.trace},
	"chord-churn-simtime":    {churnSim{"chord"}.run, churnSim{"chord"}.trace},
	"kademlia-churn-simtime": {churnSim{"kademlia"}.run, churnSim{"kademlia"}.trace},
	"chord-wire-3d":          {runWire, traceWire},
}

// splitmix64 derives well-separated sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed uint64, i int) uint64 { return splitmix64(seed ^ splitmix64(uint64(i)+1)) }

// budget stops a measuring loop: after ops operations, or once the
// timed window has closed.
type budget struct {
	ops      int
	deadline time.Time
}

// budget opens a window over share of the run: share of the seconds,
// or share of the fixed operation count (at least one).
func (e env) budget(share float64) budget {
	if e.ops > 0 {
		return budget{ops: max(1, int(float64(e.ops)*share))}
	}
	return budget{deadline: time.Now().Add(time.Duration(e.seconds * share * float64(time.Second)))}
}

func (b budget) more(done int, now time.Time) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return now.Before(b.deadline)
}

// medianSetup builds repeatedly and returns the last product with the
// median build time in seconds, so one slow build does not move
// setup_s: five builds, or as many as fit in two seconds (at most
// forty) when builds are short. A fixed operation count is a smoke run and
// builds once. discard releases a product that is being replaced; the
// collector runs between builds, off the clock, so the garbage of one
// build is not charged to the next nor to peak_rss_mb.
func medianSetup[T any](e env, build func() (T, error), discard func(T)) (T, float64, error) {
	var kept T
	var times []float64
	for reps := 1; len(times) < reps; {
		if len(times) > 0 {
			if discard != nil {
				discard(kept)
			}
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		took := time.Since(start).Seconds()
		if len(times) == 0 && e.ops == 0 {
			reps = min(40, max(5, int(2/took)))
		}
		times = append(times, took)
		kept = v
	}
	return kept, median(times), nil
}

func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return stats.Percentile(sorted, 0.5)
}

// closedLoop issues op back to back on the calling goroutine until the
// budget is spent. It returns each call's latency in microseconds and
// the wall time of the whole loop.
func closedLoop(b budget, op func(i int) error) ([]float64, time.Duration, error) {
	var lat []float64
	start := time.Now()
	prev := start
	for i := 0; b.more(i, prev); i++ {
		if err := op(i); err != nil {
			return nil, 0, err
		}
		now := time.Now()
		lat = append(lat, float64(now.Sub(prev))/1e3)
		prev = now
	}
	return lat, prev.Sub(start), nil
}

// latencyMetrics sets the median and the 95th percentile of lat. The
// 95th is the highest percentile with ten samples beyond it only from
// 200 samples up; the count is printed so a reader can tell.
func latencyMetrics(o *outcome, lat []float64) {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	o.vals["sample_p50_us"] = stats.Percentile(sorted, 0.50)
	o.vals["sample_p95_us"] = stats.Percentile(sorted, 0.95)
	o.notef("latency percentiles over %d samples", len(sorted))
}

// amortisedLatency is for workloads with no per-sample host clock (a
// batch call, a simulated scenario): both latency metrics read the
// wall time per sample, which is all a caller of those can observe.
func amortisedLatency(o *outcome, wall time.Duration, samples int64) {
	us := float64(wall) / 1e3 / float64(samples)
	o.vals["sample_p50_us"] = us
	o.vals["sample_p95_us"] = us
	o.notef("no per-sample host clock here: sample_p50_us and sample_p95_us are wall time over samples")
}

// procSnap is a reading of the process's own resource counters.
type procSnap struct {
	at        time.Time
	cpu       time.Duration
	mallocs   uint64
	gcPause   time.Duration
	heapInuse uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		gcPause:   time.Duration(ms.PauseTotalNs),
		heapInuse: ms.HeapInuse,
	}
}

// procMetrics sets the proc.* context metrics for a window of samples.
func procMetrics(v values, before, after procSnap, samples int64) {
	wall := after.at.Sub(before.at)
	v["proc.cpu_util"] = float64(after.cpu-before.cpu) / float64(wall) / float64(runtime.NumCPU())
	v["proc.allocs_per_sample"] = float64(after.mallocs-before.mallocs) / float64(samples)
	v["proc.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	v["proc.heap_mb"] = float64(after.heapInuse) / (1 << 20)
}

// peakRSSMB is the process's high-water resident set. It is read from
// VmHWM in /proc/self/status, which starts afresh at exec; getrusage's
// ru_maxrss carries over the peak of the process image that forked us,
// so under "go run" it reports the go command's 25-35 MB for any
// workload that needs less. getrusage (KB on Linux) is the fallback
// where /proc is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// uniformAlpha is the chi-square rejection level. The driver varies the
// seed, so the level is set where a correct sampler fails one run in a
// million, while the biased naive sampler (p < 1e-100 at these sample
// counts) still cannot pass.
const uniformAlpha = 1e-6

// checkUniform tests a per-owner tally for uniformity. k/n is near or
// below 1 on these workloads, so owners are binned by ring rank into
// equal-width bins that each expect at least ten samples.
func checkUniform(o *outcome, tally []int64) {
	n := len(tally)
	var total int64
	for _, c := range tally {
		total += c
	}
	bins := int(min(int64(n), total/10))
	for bins > 1 && n%bins != 0 {
		bins--
	}
	if bins < 2 {
		o.notef("uniformity not tested: %d samples are too few for two bins", total)
		return
	}
	binned := make([]int64, bins)
	for owner, c := range tally {
		binned[owner/(n/bins)] += c
	}
	stat, p, err := stats.ChiSquareUniform(binned)
	if err != nil {
		o.violatef("uniformity: %v", err)
		return
	}
	o.notef("uniformity: chi2=%.1f over %d rank bins of %d samples, p=%.4g", stat, bins, total, p)
	if p < uniformAlpha || math.IsNaN(p) {
		o.violatef("uniformity rejected: chi2=%.1f bins=%d p=%.3g", stat, bins, p)
	}
}
