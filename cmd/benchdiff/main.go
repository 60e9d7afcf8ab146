// Command benchdiff compares two committed benchmark snapshots
// (BENCH_<pr>.json, written by cmd/benchsnap) and prints the
// per-worker-count deltas — samples/sec, ns/sample and allocs/sample —
// an absolute floor on the newer snapshot's two-worker batch speedup
// (skipped, with the reason printed, for a snapshot taken on one CPU),
// plus the scenario-scale sections: kernel events/sec (proc and
// callback paths), per-backend construction peers/sec, async-churn
// events/sec, the per-backend flat-storage capacity records (heap
// bytes/node and bulk build time, both gated higher-is-worse — the
// capacity headline regresses when either grows), the per-backend E28
// SLO records (p99 latency, error
// budget and objective verdict — where higher is worse, the gate
// inverts), the per-backend adversarial records (mitigation bias,
// audit price and eclipse capture, all gated higher-is-worse, plus the
// standalone invariant that the swap mitigation's TV stays below the
// attacked naive sampler's), the sim-transport overhead and the
// module's code-line total (reported, not gated). With no
// arguments it picks
// the two highest-numbered BENCH_*.json in the current directory, so
// `make benchdiff` always reports the latest PR-over-PR change in the
// perf trajectory.
//
// The scenario-scale fields act as a regression gate: when both
// snapshots carry a field and the newer one is more than 10% worse,
// benchdiff prints the regression and exits nonzero, failing `make
// benchdiff` (and any CI step that runs it).
//
// Snapshots record the environment they were measured in (Go version,
// CPU count, GOMAXPROCS). When the two snapshots disagree, benchdiff
// warns that the comparison crosses environments — the deltas then
// measure the machine as much as the code.
//
// Usage:
//
//	benchdiff [old.json new.json]
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Snapshot mirrors the fields of cmd/benchsnap's output that the diff
// reports. Older snapshots predate some sections (ns/allocs per sample,
// kernel/build/churn); those render as "-" and are exempt from the
// regression gate.
type Snapshot struct {
	Benchmark  string   `json:"benchmark"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Peers      int      `json:"peers"`
	Samples    int      `json:"samples_per_run"`
	Runs       []Run    `json:"runs"`
	Transport  *Transp  `json:"transport_overhead"`
	Kernel     *Kernel  `json:"kernel"`
	Builds     []Build  `json:"builds"`
	Churn      *ChurnRt `json:"churn"`
	Mem        []MemRec `json:"mem"`
	SLO        []SLORec `json:"slo"`
	Adversary  []AdvRec `json:"adversary"`
	Code       *CodeRec `json:"code"`
}

// CodeRec mirrors the total of benchsnap's code section: the module's
// non-test, non-blank, non-comment Go lines. Reported, never gated.
type CodeRec struct {
	TotalLines int `json:"total_lines"`
}

// envMismatches compares the environment benchsnap stamped into two
// snapshots. Deltas across different toolchains or machines measure the
// environment, not the code, so benchdiff flags every comparison whose
// environments differ. Fields a snapshot predates (empty/zero) are not
// compared.
func envMismatches(oldSnap, newSnap *Snapshot) []string {
	var out []string
	if oldSnap.GoVersion != "" && newSnap.GoVersion != "" && oldSnap.GoVersion != newSnap.GoVersion {
		out = append(out, fmt.Sprintf("go_version %s -> %s", oldSnap.GoVersion, newSnap.GoVersion))
	}
	if oldSnap.NumCPU > 0 && newSnap.NumCPU > 0 && oldSnap.NumCPU != newSnap.NumCPU {
		out = append(out, fmt.Sprintf("num_cpu %d -> %d", oldSnap.NumCPU, newSnap.NumCPU))
	}
	if oldSnap.GOMAXPROCS > 0 && newSnap.GOMAXPROCS > 0 && oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs %d -> %d", oldSnap.GOMAXPROCS, newSnap.GOMAXPROCS))
	}
	return out
}

// Kernel mirrors benchsnap's kernel event-loop section.
type Kernel struct {
	ProcEventsPerSec     float64 `json:"proc_events_per_sec"`
	CallbackEventsPerSec float64 `json:"callback_events_per_sec"`
	SpeedupVsPR3         float64 `json:"speedup_vs_pr3"`
}

// Build mirrors benchsnap's per-backend construction section.
type Build struct {
	Backend     string  `json:"backend"`
	Peers       int     `json:"peers"`
	PeersPerSec float64 `json:"peers_per_sec"`
}

// MemRec mirrors benchsnap's per-backend flat-storage capacity
// section. Bytes/node and build wall time both gate higher-is-worse: a
// fatter per-node layout or a slower bulk build regresses the
// capacity headline (10M-peer rings in a few GB, sub-minute builds)
// even when the sampling hot paths are unaffected.
type MemRec struct {
	Backend      string  `json:"backend"`
	Peers        int     `json:"peers"`
	BuildWallMS  float64 `json:"build_wall_ms"`
	PeersPerSec  float64 `json:"peers_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
}

// ChurnRt mirrors benchsnap's async-churn rate section.
type ChurnRt struct {
	Peers        int     `json:"peers"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// SLORec mirrors benchsnap's per-backend E28 SLO section. The latency,
// availability and budget fields are deterministic functions of the
// scenario (not wall-clock measurements), so their gate catches
// behavioral regressions — a slower walk, a less effective maintenance
// sweep — that throughput noise would hide. RequestsPerSecWall is the
// section's one wall-clock rate and gates like the other rates.
type SLORec struct {
	Backend            string  `json:"backend"`
	Peers              int     `json:"peers"`
	P99Ms              float64 `json:"p99_ms"`
	Availability       float64 `json:"availability"`
	BudgetConsumedPct  float64 `json:"budget_consumed_pct"`
	RequestsPerSecWall float64 `json:"requests_per_sec_wall"`
	Met                bool    `json:"met"`
}

// AdvRec mirrors benchsnap's per-backend adversarial section. All of
// its gated fields are deterministic functions of the seed and gate
// with higher-is-worse: more accepted bias through the mitigation, a
// pricier audit, or a larger eclipse capture each mean the adversarial
// posture regressed. The naive TV is context (the attack's strength),
// not a gate. Independently of the old snapshot, the mitigation
// invariant swap_tv < naive_tv must hold within each new record.
type AdvRec struct {
	Backend        string  `json:"backend"`
	Peers          int     `json:"peers"`
	Fraction       float64 `json:"fraction"`
	NaiveTV        float64 `json:"naive_tv"`
	SwapTV         float64 `json:"swap_tv"`
	SwapFailRate   float64 `json:"swap_fail_rate"`
	EclipseCapture float64 `json:"eclipse_capture"`
}

// Run is one timed configuration of a snapshot. The per-sample fields
// are pointers so a snapshot that predates them (BENCH_1..3) is
// distinguishable from a measured value of exactly zero.
type Run struct {
	Workers         int      `json:"workers"`
	SamplesPerSec   float64  `json:"samples_per_sec"`
	NsPerSample     *float64 `json:"ns_per_sample"`
	AllocsPerSample *float64 `json:"allocs_per_sample"`
	SpeedupVs1      float64  `json:"speedup_vs_1"`
}

// Transp is the sim-transport overhead record of a snapshot.
type Transp struct {
	OverheadPct float64 `json:"overhead_pct"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var oldPath, newPath string
	switch len(args) {
	case 0:
		var err error
		oldPath, newPath, err = latestPair(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 1
		}
	case 2:
		oldPath, newPath = args[0], args[1]
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff [old.json new.json]")
		return 2
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	newSnap, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	fmt.Printf("benchdiff: %s (n=%d, k=%d) -> %s (n=%d, k=%d)\n",
		oldPath, oldSnap.Peers, oldSnap.Samples, newPath, newSnap.Peers, newSnap.Samples)
	mismatches := envMismatches(oldSnap, newSnap)
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "benchdiff: WARNING: cross-environment comparison:", m)
	}
	fmt.Printf("%-8s  %14s  %14s  %8s  %12s  %14s\n",
		"workers", "old samples/s", "new samples/s", "speedup", "new ns/samp", "new allocs/samp")
	byWorkers := make(map[int]Run, len(oldSnap.Runs))
	for _, r := range oldSnap.Runs {
		byWorkers[r.Workers] = r
	}
	for _, nr := range newSnap.Runs {
		or, ok := byWorkers[nr.Workers]
		speedup := "-"
		oldRate := "-"
		if ok && or.SamplesPerSec > 0 {
			speedup = fmt.Sprintf("%.2fx", nr.SamplesPerSec/or.SamplesPerSec)
			oldRate = fmt.Sprintf("%.0f", or.SamplesPerSec)
		}
		fmt.Printf("%-8d  %14s  %14.0f  %8s  %12s  %14s\n",
			nr.Workers, oldRate, nr.SamplesPerSec, speedup,
			optional(nr.NsPerSample, "%.0f"), optional(nr.AllocsPerSample, "%.4f"))
	}
	if oldSnap.Transport != nil && newSnap.Transport != nil {
		fmt.Printf("sim-transport overhead: %.2f%% -> %.2f%%\n",
			oldSnap.Transport.OverheadPct, newSnap.Transport.OverheadPct)
	}
	// The scenario-scale sections gate on >10% regression: a comparison
	// runs only when both snapshots carry the field, so the first
	// snapshot to introduce a section sets its baseline.
	var regressions []string
	check := func(name string, oldV, newV float64) {
		if oldV <= 0 || newV <= 0 {
			return
		}
		fmt.Printf("%-28s  %14.0f  %14.0f  %6.2fx\n", name, oldV, newV, newV/oldV)
		if newV < oldV*(1-regressionTolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.0f -> %.0f)", name, 100*(1-newV/oldV), oldV, newV))
		}
	}
	// checkUp gates metrics where higher is worse (latency, budget
	// burn): the newer snapshot regresses when it exceeds the old value
	// by more than the tolerance.
	// Zero is a value here, not an absence (a run that burns no budget
	// reports 0): falling to zero prints as the improvement it is, and
	// rising from zero, where no ratio exists, is a regression.
	checkUp := func(name string, oldV, newV float64) {
		if oldV < 0 || newV < 0 || (oldV == 0 && newV == 0) {
			return
		}
		if oldV == 0 {
			fmt.Printf("%-28s  %14.2f  %14.2f  %7s\n", name, oldV, newV, "from 0")
			regressions = append(regressions, fmt.Sprintf("%s regressed from zero (0 -> %.2f)", name, newV))
			return
		}
		fmt.Printf("%-28s  %14.2f  %14.2f  %6.2fx\n", name, oldV, newV, newV/oldV)
		if newV > oldV*(1+regressionTolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.2f -> %.2f)", name, 100*(newV/oldV-1), oldV, newV))
		}
	}
	// Batch scaling is gated on the newer snapshot alone: BENCH_12 to 17
	// all recorded two workers slower than one, and a PR-over-PR ratio
	// of two equally inverted snapshots reads 1.00x.
	for _, nr := range newSnap.Runs {
		if nr.Workers != 2 || nr.SpeedupVs1 <= 0 {
			continue
		}
		if newSnap.NumCPU < 2 {
			fmt.Printf("batch scaling gate skipped: %s was measured on %d CPU, where two workers cannot run side by side\n", newPath, newSnap.NumCPU)
			continue
		}
		fmt.Printf("%-28s  %14s  %14.2f  (floor %.1f)\n", "batch speedup, 2 workers", "", nr.SpeedupVs1, scalingFloor)
		if nr.SpeedupVs1 < scalingFloor {
			regressions = append(regressions,
				fmt.Sprintf("batch sampling does not scale: 2 workers run %.2fx one worker on %d CPUs, floor %.1fx", nr.SpeedupVs1, newSnap.NumCPU, scalingFloor))
		}
	}
	if oldSnap.Kernel != nil && newSnap.Kernel != nil {
		check("kernel proc events/sec", oldSnap.Kernel.ProcEventsPerSec, newSnap.Kernel.ProcEventsPerSec)
		check("kernel callback events/sec", oldSnap.Kernel.CallbackEventsPerSec, newSnap.Kernel.CallbackEventsPerSec)
	}
	oldBuilds := make(map[string]Build, len(oldSnap.Builds))
	for _, b := range oldSnap.Builds {
		oldBuilds[b.Backend] = b
	}
	for _, nb := range newSnap.Builds {
		if ob, ok := oldBuilds[nb.Backend]; ok && ob.Peers == nb.Peers {
			check("build "+nb.Backend+" peers/sec", ob.PeersPerSec, nb.PeersPerSec)
		}
	}
	if oldSnap.Churn != nil && newSnap.Churn != nil && oldSnap.Churn.Peers == newSnap.Churn.Peers {
		check("churn events/sec", oldSnap.Churn.EventsPerSec, newSnap.Churn.EventsPerSec)
	}
	oldMem := make(map[string]MemRec, len(oldSnap.Mem))
	for _, m := range oldSnap.Mem {
		oldMem[m.Backend] = m
	}
	for _, nm := range newSnap.Mem {
		prev, ok := oldMem[nm.Backend]
		if !ok || prev.Peers != nm.Peers {
			continue
		}
		checkUp("mem "+nm.Backend+" bytes/node", prev.BytesPerNode, nm.BytesPerNode)
		checkUp("mem "+nm.Backend+" build ms", prev.BuildWallMS, nm.BuildWallMS)
		check("mem "+nm.Backend+" peers/sec", prev.PeersPerSec, nm.PeersPerSec)
	}
	oldSLO := make(map[string]SLORec, len(oldSnap.SLO))
	for _, s := range oldSnap.SLO {
		oldSLO[s.Backend] = s
	}
	for _, ns := range newSnap.SLO {
		prev, ok := oldSLO[ns.Backend]
		if !ok || prev.Peers != ns.Peers {
			continue
		}
		check("slo "+ns.Backend+" req/sec wall", prev.RequestsPerSecWall, ns.RequestsPerSecWall)
		checkUp("slo "+ns.Backend+" p99 ms", prev.P99Ms, ns.P99Ms)
		checkUp("slo "+ns.Backend+" budget %", prev.BudgetConsumedPct, ns.BudgetConsumedPct)
		if prev.Met && !ns.Met {
			regressions = append(regressions,
				fmt.Sprintf("slo %s: objectives previously met, now missed (availability %.4f -> %.4f)",
					ns.Backend, prev.Availability, ns.Availability))
		}
	}
	oldAdv := make(map[string]AdvRec, len(oldSnap.Adversary))
	for _, a := range oldSnap.Adversary {
		oldAdv[a.Backend] = a
	}
	for _, na := range newSnap.Adversary {
		if na.SwapTV >= na.NaiveTV && na.NaiveTV > 0 {
			regressions = append(regressions,
				fmt.Sprintf("adversary %s: mitigation no longer holds (swap TV %.4f >= naive TV %.4f)",
					na.Backend, na.SwapTV, na.NaiveTV))
		}
		prev, ok := oldAdv[na.Backend]
		if !ok || prev.Peers != na.Peers || prev.Fraction != na.Fraction {
			continue
		}
		checkUp("adversary "+na.Backend+" swap tv", prev.SwapTV, na.SwapTV)
		checkUp("adversary "+na.Backend+" swap fail rate", prev.SwapFailRate, na.SwapFailRate)
		checkUp("adversary "+na.Backend+" eclipse capture", prev.EclipseCapture, na.EclipseCapture)
	}
	if newSnap.Code != nil {
		was, delta := "-", ""
		if oldSnap.Code != nil {
			was = strconv.Itoa(oldSnap.Code.TotalLines)
			delta = fmt.Sprintf(" (%+d)", newSnap.Code.TotalLines-oldSnap.Code.TotalLines)
		}
		fmt.Printf("code lines (non-test, non-blank, non-comment): %s -> %d%s\n", was, newSnap.Code.TotalLines, delta)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchdiff: REGRESSION:", r)
		}
		if len(mismatches) > 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: note: the snapshots were taken in different environments (see warnings above); re-measure on one machine before trusting these deltas")
		}
		return 1
	}
	return 0
}

// regressionTolerance is the fractional slowdown the scenario-scale
// gate tolerates before failing (wall-clock measurements are noisy;
// anything beyond 10% is treated as a real regression).
const regressionTolerance = 0.10

// scalingFloor is the least speedup_vs_1 the newer snapshot's two-worker
// run may record on a machine with two or more CPUs. The oracle batch is
// CPU-bound and its forks share no written memory, so the measured value
// is 1.9 or more; 1.5 leaves room for a noisy neighbour and none for the
// 0.8 that contended cost counters produced.
const scalingFloor = 1.5

// optional renders a metric the snapshot may predate.
func optional(v *float64, format string) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(format, *v)
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// latestPair returns the two highest-numbered BENCH_<pr>.json in dir.
func latestPair(dir string) (oldPath, newPath string, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	re := regexp.MustCompile(`BENCH_(\d+)\.json$`)
	type numbered struct {
		pr   int
		path string
	}
	var found []numbered
	for _, p := range paths {
		m := re.FindStringSubmatch(p)
		if m == nil {
			continue
		}
		pr, _ := strconv.Atoi(m[1])
		found = append(found, numbered{pr, p})
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<pr>.json in %s, found %d", dir, len(found))
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pr < found[j].pr })
	return found[len(found)-2].path, found[len(found)-1].path, nil
}
