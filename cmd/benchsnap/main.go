// Command benchsnap records what the repository does, as opposed to
// how fast this box does it: the scenario sections whose leaves are a
// pure function of the seed (async churn, E27, the E28 SLO scenarios,
// the adversarial cells, flat-storage bytes per node), the traced-pass
// ledger of the repository benchmark at a fixed operation count per
// workload, and the module's code-line count. The JSON snapshot is
// committed as BENCH_<pr>.json at the repo root; cmd/benchdiff fails
// on the leaves that repeat bit for bit and reports the rest. Wall
// clock is bench/'s job (BENCHMARK.json: paired runs, fixed bounds);
// nothing here times what it times.
//
// Usage (inside the repository):
//
//	benchsnap [-o BENCH_21.json] [-seed 1]
//	          [-mem-chord-n 10000000 -mem-kademlia-n 2097152]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/dht-sampling/randompeer/internal/overlays"
)

// Snapshot is the committed record. Snapshots before BENCH_21 also
// carry four sections that held nothing but this box's wall clock
// (batch runs, transport overhead, kernel paths, bulk builds);
// benchdiff reports them as SKIPPED.
type Snapshot struct {
	Date       time.Time                     `json:"date"`
	GoVersion  string                        `json:"go_version"`
	NumCPU     int                           `json:"num_cpu"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Seed       uint64                        `json:"seed"`
	Churn      *ChurnBench                   `json:"churn,omitempty"`
	E27        *E27Scale                     `json:"e27,omitempty"`
	Mem        []MemBench                    `json:"mem,omitempty"`
	SLO        []SLOBench                    `json:"slo,omitempty"`
	Adversary  []AdversaryBench              `json:"adversary,omitempty"`
	Ledger     map[string]map[string]float64 `json:"ledger"`
	Code       *CodeBench                    `json:"code"`
}

func main() {
	os.Exit(run(os.Args[1:], goRunBench))
}

// run takes the command that produces one workload's bench report so
// that tests can hand it a captured one.
func run(args []string, bench benchRunner) int {
	fs := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	var (
		seed    = fs.Uint64("seed", 1, "placement and scenario seed")
		out     = fs.String("o", "", "output path (default stdout)")
		churnN  = fs.Int("churn-n", 256, "chord ring size for the async-churn run")
		churnEv = fs.Int("churn-events", 2000, "async churn events to drive")
		e27N    = fs.Int("e27-n", 1_000_000, "chord network size for the E27 scenario run (0 disables)")
		e27Ev   = fs.Int("e27-events", 48, "churn events in the E27 scenario run")
		memCh   = fs.Int("mem-chord-n", 1_000_000, "chord ring size for the flat-storage capacity measurement (0 disables; the 10M headline is 10000000, ~4 GB)")
		memKad  = fs.Int("mem-kademlia-n", 1<<17, "kademlia network size for the flat-storage capacity measurement (0 disables; the headline is 2097152, ~8 GB)")
		sloOn   = fs.Bool("slo", true, "run the E28 SLO scenarios (open-loop load under churn, both backends)")
		advOn   = fs.Bool("adversary", true, "run the adversarial scenarios (route-bias bias + eclipse capture, both backends)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	snap := &Snapshot{
		Date:       time.Now().UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
	}
	measure := func() error {
		root, err := moduleRoot()
		if err != nil {
			return err
		}
		if snap.Churn, err = measureChurn(*churnN, *churnEv, *seed); err != nil {
			return err
		}
		if *e27N > 0 {
			if snap.E27, err = measureE27(*e27N, *e27Ev, 200, *seed); err != nil {
				return err
			}
		}
		if snap.Mem, err = measureMem(map[string]int{"chord": *memCh, "kademlia": *memKad}, *seed); err != nil {
			return err
		}
		if *sloOn {
			if snap.SLO, err = measureSLO(overlays.Names, *seed); err != nil {
				return err
			}
		}
		if *advOn {
			if snap.Adversary, err = measureAdversary(overlays.Names, *seed); err != nil {
				return err
			}
		}
		if snap.Ledger, err = measureLedger(root, bench); err != nil {
			return err
		}
		snap.Code, err = measureCode(root)
		return err
	}
	if err := measure(); err != nil {
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
