package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// ledgerOps is the fixed operation count each workload's traced pass
// runs at. At a fixed count every counter the pass prints (messages,
// trials, hops, kernel events, calls per request) repeats bit for bit,
// on any machine; these are the counts PR 19 published.
var ledgerOps = map[string]int{
	"oracle-batch-1m":        65536,
	"chord-direct-16k":       3000,
	"kademlia-direct-16k":    600,
	"chord-churn-simtime":    1500,
	"kademlia-churn-simtime": 1500,
	"chord-wire-3d":          600,
}

// ledgerSeed is the workload seed of every ledger pass.
const ledgerSeed = 7

// scalingOps is the operation count of the extra traced passes of
// scalingWorkload that scalingLeaves come from. At the workload's
// ledgerOps each of its two engine runs draws about 20k samples in
// tens of milliseconds, and engine.speedup_wN read 1.45 and 1.76 in two
// snapshots of one commit and 1.03 in a single pass; at 2^21 each run
// draws about 630k samples and lasts about a second. Every other leaf,
// the exact ones included, still comes from the ledgerOps passes.
const scalingOps = 1 << 21

// scalingWorkload and scalingLeaves name the engine's own throughput
// leaves, which benchdiff gates (engine.speedup_wN >= 1.5).
const scalingWorkload = "oracle-batch-1m"

var scalingLeaves = []string{"engine.samples_per_s_w1", "engine.speedup_wN"}

// ledgerPasses is how many traced passes each workload runs; the ledger
// keeps each leaf's median. The count leaves are equal in every pass, so
// their median is exact. A wall-clock leaf of a single pass moved 18×
// between two snapshots taken minutes apart (trace.overhead_pct 38 →
// 689); one slow pass does not move a median of three.
const ledgerPasses = 3

// benchRunner runs one workload's traced pass of the repository
// benchmark under root and returns the report it printed.
type benchRunner func(root, workload string, ops int) ([]byte, error)

// warmOnce warms the machine up before the first child process. On the
// virtual reference box the second vCPU runs beside the first only
// after several CPUs' worth of load has lasted three to four seconds
// (idle for a minute and it is gone again); until then
// engine.speedup_wN reads 1.0 whatever the code does.
var warmOnce sync.Once

// goRunBench runs the benchmark the way BENCHMARK.json's command does,
// from source, in a child process.
func goRunBench(root, workload string, ops int) ([]byte, error) {
	warmOnce.Do(func() { warm(5 * time.Second) })
	cmd := exec.Command("go", "run", "-C", filepath.Join(root, "bench"), ".",
		"-workload", workload, "-seed", strconv.Itoa(ledgerSeed), "-ops", strconv.Itoa(ops), "-trace", "1")
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// measureLedger records, for each workload BENCHMARK.json names, the
// per-metric median of its ledgerPasses traced passes, with the
// operation count beside it as "ops"; scalingWorkload's scalingLeaves
// are the medians of as many passes at scalingOps, each run right after
// that workload's ledgerOps pass. The passes go round the workloads in
// turn, so that a slow spell of the machine falls on different
// workloads' passes, not on all three of one.
func measureLedger(root string, bench benchRunner) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	passes := make(map[string]map[string][]float64, len(spec.Workloads))
	scaling := make(map[string][]float64, len(scalingLeaves))
	for pass := 1; pass <= ledgerPasses; pass++ {
		for _, w := range spec.Workloads {
			ops, ok := ledgerOps[w.Name]
			if !ok {
				return nil, fmt.Errorf("ledger: no operation count for workload %q", w.Name)
			}
			if passes[w.Name] == nil {
				passes[w.Name] = make(map[string][]float64)
			}
			if err := ledgerPass(root, bench, w.Name, ops, pass, passes[w.Name]); err != nil {
				return nil, err
			}
			if w.Name == scalingWorkload {
				if err := ledgerPass(root, bench, w.Name, scalingOps, pass, scaling); err != nil {
					return nil, err
				}
			}
		}
	}
	if leaves := passes[scalingWorkload]; leaves != nil {
		for _, leaf := range scalingLeaves {
			leaves[leaf] = scaling[leaf]
		}
	}
	ledger := make(map[string]map[string]float64, len(spec.Workloads))
	for name, leaves := range passes {
		ledger[name] = make(map[string]float64, len(leaves)+1)
		for leaf, vs := range leaves {
			if len(vs) != ledgerPasses {
				return nil, fmt.Errorf("ledger: %s: %s printed in %d of %d passes", name, leaf, len(vs), ledgerPasses)
			}
			slices.Sort(vs)
			ledger[name][leaf] = vs[len(vs)/2]
		}
		ledger[name]["ops"] = float64(ledgerOps[name])
	}
	return ledger, nil
}

// ledgerPass runs one traced pass of workload at ops and appends each
// metric it printed to leaves.
func ledgerPass(root string, bench benchRunner, workload string, ops, pass int, leaves map[string][]float64) error {
	fmt.Fprintf(os.Stderr, "benchsnap: ledger — %s, traced pass %d of %d at -seed %d -ops %d...\n", workload, pass, ledgerPasses, ledgerSeed, ops)
	report, err := bench(root, workload, ops)
	if err != nil {
		return fmt.Errorf("ledger: %s: %w", workload, err)
	}
	metrics, err := readLedger(report)
	if err != nil {
		return fmt.Errorf("ledger: %s: %w", workload, err)
	}
	for name, v := range metrics {
		leaves[name] = append(leaves[name], v)
	}
	return nil
}

// readLedger returns the metric values of one bench report: metric and
// "# ..." note lines, then the JSON result as the last line.
func readLedger(report []byte) (map[string]float64, error) {
	lines := bytes.Split(bytes.TrimSpace(report), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("bench printed no result: %w", err)
	}
	if !res.Correct {
		return nil, errors.New("bench outputs failed verification")
	}
	if len(res.Metrics) == 0 {
		return nil, errors.New("bench result carries no metrics")
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}

// warm keeps every CPU busy for d.
func warm(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := time.Now(); time.Since(start) < d; {
			}
		}()
	}
	wg.Wait()
}
