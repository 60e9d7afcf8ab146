package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"
)

// capturedReport is what `go run -C bench . -workload chord-direct-16k
// -seed 7 -ops 3000 -trace 1` printed at PR 20: metric lines, "# ..."
// notes, and the JSON result as the last line.
func capturedReport(t *testing.T) []byte {
	t.Helper()
	report, err := os.ReadFile(filepath.Join("testdata", "chord-direct-16k.report"))
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestReadLedger(t *testing.T) {
	report := capturedReport(t)
	metrics, err := readLedger(report)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"msgs_per_sample":        258.0722222222222,
		"core.trials_per_sample": 10.688888888888888,
		"wire.calls_per_request": 0,
	} {
		if got, ok := metrics[name]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, want)
		}
	}
	if len(metrics) != 66 {
		t.Errorf("read %d metrics, want the 66 per-layer names BENCHMARK.json declares", len(metrics))
	}

	// A child that fails is an error, never an empty or partial section.
	lines := bytes.Split(bytes.TrimSpace(report), []byte("\n"))
	noJSON := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	incorrect := bytes.Replace(report, []byte(`"correct":true`), []byte(`"correct":false`), 1)
	for name, bad := range map[string][]byte{
		"no JSON last line": noJSON,
		"correct is false":  incorrect,
		"no metrics":        []byte(`{"correct":true}`),
		"empty":             nil,
	} {
		if got, err := readLedger(bad); err == nil {
			t.Errorf("%s: readLedger = %v, want an error", name, got)
		}
	}
}

// TestLedgerMedianOfPasses runs the ledger over a fake benchmark whose
// wall-clock leaves differ in every pass: the ledger keeps their
// medians and each count leaf as printed, and goes round the workloads
// pass by pass. oracle-batch-1m's engine leaves come from the extra
// passes at scalingOps, run right after its own; every other leaf of
// it, ops and the counts included, from the ledgerOps passes.
func TestLedgerMedianOfPasses(t *testing.T) {
	root := t.TempDir()
	spec := `{"workloads": [{"name": "oracle-batch-1m"}, {"name": "chord-wire-3d"}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	// Per workload and operation count, one value a pass: the wall
	// leaf and the engine speedup.
	walls := map[string][]float64{
		"oracle-batch-1m@65536":   {38, 689, 41},
		"oracle-batch-1m@2097152": {5, 6, 7},
		"chord-wire-3d@600":       {2, 1, 3},
	}
	speedups := map[string][]float64{
		"oracle-batch-1m@65536":   {1.03, 1.45, 1.76},
		"oracle-batch-1m@2097152": {1.9, 2.1, 1.8},
		"chord-wire-3d@600":       {0, 0, 0},
	}
	var ran []string
	bench := func(_, workload string, ops int) ([]byte, error) {
		key := fmt.Sprintf("%s@%d", workload, ops)
		pass := 0
		for _, k := range ran {
			if k == key {
				pass++
			}
		}
		ran = append(ran, key)
		return fmt.Appendf(nil, "# note\n{\"correct\":true,\"metrics\":{\"trace.overhead_pct\":{\"value\":%v},\"msgs_per_sample\":{\"value\":%d},"+
			"\"engine.speedup_wN\":{\"value\":%v},\"engine.samples_per_s_w1\":{\"value\":%v}}}\n",
			walls[key][pass], ops, speedups[key][pass], 1e5*speedups[key][pass]), nil
	}
	ledger, err := measureLedger(root, bench)
	if err != nil {
		t.Fatal(err)
	}
	round := []string{"oracle-batch-1m@65536", "oracle-batch-1m@2097152", "chord-wire-3d@600"}
	if want := slices.Concat(round, round, round); !slices.Equal(ran, want) {
		t.Errorf("passes ran %v, want %v", ran, want)
	}
	for workload, want := range map[string]struct{ wall, speedup float64 }{
		"oracle-batch-1m": {41, 1.9},
		"chord-wire-3d":   {2, 0},
	} {
		got := ledger[workload]
		if got["trace.overhead_pct"] != want.wall {
			t.Errorf("%s: trace.overhead_pct = %v, want the median %v", workload, got["trace.overhead_pct"], want.wall)
		}
		if got["engine.speedup_wN"] != want.speedup || got["engine.samples_per_s_w1"] != 1e5*want.speedup {
			t.Errorf("%s: engine.speedup_wN = %v, samples_per_s_w1 = %v, want the median %v of its scaling passes",
				workload, got["engine.speedup_wN"], got["engine.samples_per_s_w1"], want.speedup)
		}
		if ops := float64(ledgerOps[workload]); got["msgs_per_sample"] != ops || got["ops"] != ops {
			t.Errorf("%s: msgs_per_sample = %v, ops = %v, want both %v", workload, got["msgs_per_sample"], got["ops"], ops)
		}
	}
}

// TestGatedSectionsRepeat takes two snapshots of the in-process
// sections at small sizes and hands them to benchdiff: what it holds
// exact must not differ between two runs of one binary. The ledger
// comes from the captured report, so no benchmark child runs here.
func TestGatedSectionsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the E28 scenarios in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	report := capturedReport(t)
	var ran []string
	bench := func(root, workload string, ops int) ([]byte, error) {
		ran = append(ran, workload)
		return report, nil
	}
	args := []string{"-mem-chord-n", "4096", "-mem-kademlia-n", "1024"}
	if raceflag.Enabled {
		// The two full-size E28 scenarios take four minutes under the
		// detector and run on one goroutine; internal/exp races them at
		// quick size.
		args = append(args, "-slo=false")
	}
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"a.json", "b.json"} {
		path := filepath.Join(dir, name)
		if exit := run(append(args, "-o", path), bench); exit != 0 {
			t.Fatalf("benchsnap exit = %d", exit)
		}
		paths = append(paths, path)
	}
	if len(ran) != 2*ledgerPasses*(len(ledgerOps)+1) {
		t.Errorf("ledger ran %v, want every workload of BENCHMARK.json three times a snapshot, %s six", ran, scalingWorkload)
	}
	// bytes_per_node is not exact, and at a thousand nodes a stray
	// allocation moves it past benchdiff's 0.1%: only the exact gate
	// is asserted.
	out, _ := exec.Command(gobin, append([]string{"run", "../benchdiff"}, paths...)...).CombinedOutput()
	if n := strings.Count(string(out), "| equal | exact |"); n < 50 {
		t.Errorf("benchdiff compared %d exact leaves, want the slo, adversary, mem and ledger ones\n%s", n, out)
	}
	if strings.Contains(string(out), "exact FAIL") {
		t.Errorf("an exact leaf differs between two runs of one binary\n%s", out)
	}
}
