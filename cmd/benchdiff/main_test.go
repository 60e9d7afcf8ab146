package main

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// write drops a minimal snapshot file and returns its path.
func write(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseSnap = `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}],
  "kernel": {"proc_events_per_sec": 90000000, "callback_events_per_sec": 29000000},
  "builds": [{"backend": "chord", "peers": 1000000, "peers_per_sec": 160000}],
  "churn": {"peers": 256, "events_per_sec": 6000}
}`

func TestBenchdiffPassesOnImprovement(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", baseSnap)
	newP := write(t, dir, "new.json", `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 52000}],
  "kernel": {"proc_events_per_sec": 95000000, "callback_events_per_sec": 30000000},
  "builds": [{"backend": "chord", "peers": 1000000, "peers_per_sec": 170000}],
  "churn": {"peers": 256, "events_per_sec": 6100}
}`)
	if code := run([]string{oldP, newP}); code != 0 {
		t.Fatalf("exit = %d, want 0 for an improvement", code)
	}
}

func TestBenchdiffFailsOnKernelRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", baseSnap)
	// Kernel proc path 20% slower: beyond the 10% tolerance.
	newP := write(t, dir, "new.json", `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}],
  "kernel": {"proc_events_per_sec": 72000000, "callback_events_per_sec": 29000000},
  "builds": [{"backend": "chord", "peers": 1000000, "peers_per_sec": 160000}],
  "churn": {"peers": 256, "events_per_sec": 6000}
}`)
	if code := run([]string{oldP, newP}); code != 1 {
		t.Fatalf("exit = %d, want 1 for a >10%% kernel regression", code)
	}
}

func TestBenchdiffFailsOnBuildAndChurnRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", baseSnap)
	newP := write(t, dir, "new.json", `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}],
  "kernel": {"proc_events_per_sec": 90000000, "callback_events_per_sec": 29000000},
  "builds": [{"backend": "chord", "peers": 1000000, "peers_per_sec": 100000}],
  "churn": {"peers": 256, "events_per_sec": 4000}
}`)
	if code := run([]string{oldP, newP}); code != 1 {
		t.Fatalf("exit = %d, want 1 for build+churn regressions", code)
	}
}

func TestBenchdiffToleratesMissingSections(t *testing.T) {
	dir := t.TempDir()
	// An old snapshot (pre-BENCH_5) has no scenario-scale sections: the
	// newer snapshot introduces them and sets the baseline, no gate.
	oldP := write(t, dir, "old.json", `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}]
}`)
	newP := write(t, dir, "new.json", baseSnap)
	if code := run([]string{oldP, newP}); code != 0 {
		t.Fatalf("exit = %d, want 0 when the old snapshot predates the sections", code)
	}
}

// sloSnap builds a one-section snapshot around an E28 SLO record.
func sloSnap(p99, budget, reqPerSec float64, met bool) string {
	return `{
  "benchmark": "batch-throughput", "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}],
  "slo": [{"backend": "chord", "peers": 512,
    "p99_ms": ` + strconv.FormatFloat(p99, 'f', -1, 64) + `,
    "availability": 0.99,
    "budget_consumed_pct": ` + strconv.FormatFloat(budget, 'f', -1, 64) + `,
    "requests_per_sec_wall": ` + strconv.FormatFloat(reqPerSec, 'f', -1, 64) + `,
    "met": ` + strconv.FormatBool(met) + `}]
}`
}

func TestBenchdiffSLOGateInvertsForLatencyAndBudget(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", sloSnap(800, 40, 900, true))

	// Faster p99, less budget burned, higher wall rate: an improvement.
	better := write(t, dir, "better.json", sloSnap(700, 30, 1000, true))
	if code := run([]string{oldP, better}); code != 0 {
		t.Fatalf("exit = %d, want 0 for an SLO improvement", code)
	}

	// p99 up 20%: higher is worse, the inverted gate must fire.
	slower := write(t, dir, "slower.json", sloSnap(960, 40, 900, true))
	if code := run([]string{oldP, slower}); code != 1 {
		t.Fatalf("exit = %d, want 1 for a >10%% p99 regression", code)
	}

	// Budget consumed up 20% at unchanged latency: also a regression.
	burned := write(t, dir, "burned.json", sloSnap(800, 48, 900, true))
	if code := run([]string{oldP, burned}); code != 1 {
		t.Fatalf("exit = %d, want 1 for a >10%% budget-burn regression", code)
	}
}

// TestBenchdiffSLOGateTreatsZeroAsAValue pins the two ends of a
// higher-is-worse metric that reaches zero: a run that stops burning
// budget is an improvement, and a later run that burns some again is a
// regression even though no ratio to zero exists.
func TestBenchdiffSLOGateTreatsZeroAsAValue(t *testing.T) {
	dir := t.TempDir()
	burning := write(t, dir, "burning.json", sloSnap(800, 1.33, 900, true))
	clean := write(t, dir, "clean.json", sloSnap(300, 0, 1000, true))
	if code := run([]string{burning, clean}); code != 0 {
		t.Fatalf("exit = %d, want 0 when budget burn falls to zero", code)
	}
	if code := run([]string{clean, clean}); code != 0 {
		t.Fatalf("exit = %d, want 0 when budget burn stays at zero", code)
	}
	if code := run([]string{clean, burning}); code != 1 {
		t.Fatalf("exit = %d, want 1 when budget burn rises from zero", code)
	}
}

func TestBenchdiffSLOGateFailsOnMetFlip(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", sloSnap(800, 40, 900, true))
	// Same rates, but the objectives flipped from met to missed.
	missed := write(t, dir, "missed.json", sloSnap(800, 40, 900, false))
	if code := run([]string{oldP, missed}); code != 1 {
		t.Fatalf("exit = %d, want 1 when objectives flip from met to missed", code)
	}
}

// scalingSnap is a snapshot whose two-worker run recorded the given
// speedup over one worker on a machine with the given CPU count.
func scalingSnap(numCPU int, speedup float64) string {
	return `{
  "benchmark": "batch-throughput", "num_cpu": ` + strconv.Itoa(numCPU) + `, "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000, "speedup_vs_1": 1},
    {"workers": 2, "samples_per_sec": ` + strconv.FormatFloat(50000*speedup, 'f', -1, 64) + `,
     "speedup_vs_1": ` + strconv.FormatFloat(speedup, 'f', -1, 64) + `}]
}`
}

// TestBenchdiffBatchScalingFloor: the two-worker speedup is gated on the
// newer snapshot alone, so inverse scaling fails even against an older
// snapshot that was just as inverted, and a one-CPU snapshot, where the
// workers cannot run side by side, skips the gate.
func TestBenchdiffBatchScalingFloor(t *testing.T) {
	dir := t.TempDir()
	inverted := write(t, dir, "inverted.json", scalingSnap(2, 0.8))
	scaling := write(t, dir, "scaling.json", scalingSnap(2, 1.9))
	oneCPU := write(t, dir, "onecpu.json", scalingSnap(1, 0.97))
	if code := run([]string{inverted, scaling}); code != 0 {
		t.Fatalf("exit = %d, want 0 for a 1.9x two-worker speedup on 2 CPUs", code)
	}
	if code := run([]string{inverted, inverted}); code != 1 {
		t.Fatalf("exit = %d, want 1 for a 0.8x two-worker speedup on 2 CPUs, unchanged PR over PR", code)
	}
	if code := run([]string{scaling, oneCPU}); code != 0 {
		t.Fatalf("exit = %d, want 0: a one-CPU snapshot skips the scaling gate", code)
	}
}

func TestBenchdiffEnvMismatchDetection(t *testing.T) {
	same := &Snapshot{GoVersion: "go1.24.0", NumCPU: 8, GOMAXPROCS: 8}
	if ms := envMismatches(same, same); len(ms) != 0 {
		t.Fatalf("identical environments flagged: %v", ms)
	}
	other := &Snapshot{GoVersion: "go1.23.1", NumCPU: 4, GOMAXPROCS: 2}
	if ms := envMismatches(same, other); len(ms) != 3 {
		t.Fatalf("got %d mismatches, want 3: %v", len(ms), ms)
	}
	// Snapshots that predate the environment fields never flag.
	empty := &Snapshot{}
	if ms := envMismatches(empty, same); len(ms) != 0 {
		t.Fatalf("pre-env snapshot flagged: %v", ms)
	}
}

func TestBenchdiffWarnsAcrossEnvironmentsButStillPasses(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", `{
  "benchmark": "batch-throughput", "go_version": "go1.23.1", "num_cpu": 4, "gomaxprocs": 4,
  "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 50000}]
}`)
	newP := write(t, dir, "new.json", `{
  "benchmark": "batch-throughput", "go_version": "go1.24.0", "num_cpu": 8, "gomaxprocs": 8,
  "peers": 1000, "samples_per_run": 100,
  "runs": [{"workers": 1, "samples_per_sec": 52000}]
}`)
	// A cross-environment comparison warns but does not fail on its own.
	if code := run([]string{oldP, newP}); code != 0 {
		t.Fatalf("exit = %d, want 0 (warning only) for cross-environment comparison", code)
	}
}

// TestBenchdiffReportsCodeLinesWithoutGating: the code-line total is
// printed PR over PR, and neither growth nor a snapshot that predates
// the section fails the diff.
func TestBenchdiffReportsCodeLinesWithoutGating(t *testing.T) {
	dir := t.TempDir()
	withCode := func(name string, lines int) string {
		return write(t, dir, name, baseSnap[:len(baseSnap)-2]+`, "code": {"total_lines": `+strconv.Itoa(lines)+`}}`)
	}
	oldP, newP := withCode("old.json", 20000), withCode("new.json", 30000)
	if code := run([]string{oldP, newP}); code != 0 {
		t.Fatalf("exit = %d, want 0: code growth is reported, not gated", code)
	}
	if code := run([]string{write(t, dir, "bare.json", baseSnap), newP}); code != 0 {
		t.Fatalf("exit = %d, want 0 when the old snapshot predates the code section", code)
	}
}
