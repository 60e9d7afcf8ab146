// Command experiments regenerates every table and figure-series of the
// King–Saia reproduction (experiments E1-E30, indexed in DESIGN.md).
// The substrate experiments enumerate randompeer.Backends(), so a new
// DHT backend shows up in their tables without any change here.
//
// Usage:
//
//	experiments [-run E1,E2|all] [-seed N] [-quick] [-csv DIR] [-list] [-workers N] [-latency MODEL]
//
// -latency selects the link-latency model for the simulated-time
// experiments (E25-E28) — e.g. constant:1ms, uniform:500us-5ms,
// lognormal:2ms,0.6, straggler:0.1,8,constant:1ms — defaulting to a
// constant 1ms round trip.
//
// Output is a paper-style aligned table per experiment on stdout; with
// -csv the raw data also lands in DIR/<id>.csv for plotting. Experiments
// (and the sweep points within them) execute across -workers goroutines;
// every sweep point is seeded independently, so the tables are identical
// at any worker count and print in experiment order regardless of which
// finishes first.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/dht-sampling/randompeer/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runIDs  = fs.String("run", "all", "comma-separated experiment ids (e.g. E1,E8) or 'all'")
		seed    = fs.Uint64("seed", 1, "root seed; equal seeds reproduce equal tables")
		quick   = fs.Bool("quick", false, "reduced sweeps (smoke run)")
		csvDir  = fs.String("csv", "", "also write <id>.csv files into this directory")
		list    = fs.Bool("list", false, "list experiments and exit")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for experiments and their sweep points")
		latency = fs.String("latency", "", "latency model for the simulated-time experiments E25-E28 (default constant:1ms)")
		sloOut  = fs.String("slo-report", "", "also write the per-backend E28 SLO report (markdown) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}
	selected, err := selectExperiments(*runIDs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	cfg := exp.RunConfig{Seed: *seed, Quick: *quick, Workers: *workers, Latency: *latency}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("running %d experiments (%s mode, seed %d, %d workers)\n\n", len(selected), mode, *seed, *workers)
	failures := 0
	for _, res := range exp.RunAll(cfg, selected, *workers) {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", res.Experiment.ID, res.Err)
			failures++
			continue
		}
		if err := res.Table.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Printf("  (%s completed in %v)\n\n", res.Experiment.ID, res.Elapsed.Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res.Table); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				failures++
			}
		}
	}
	if *sloOut != "" {
		if err := writeSLOReport(*sloOut, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			failures++
		} else {
			fmt.Printf("wrote SLO report to %s\n", *sloOut)
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// writeSLOReport runs the scenarios the E28 table runs under cfg and
// writes the full markdown report — the artifact the CI smoke job
// uploads. Same scenarios: the report's numbers match the table's.
func writeSLOReport(path string, cfg exp.RunConfig) error {
	scenarios, err := exp.E28Scenarios(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer f.Close()
	for _, sc := range scenarios {
		res, err := exp.RunSLOScenario(sc)
		if err != nil {
			return fmt.Errorf("E28 %s: %w", sc.Backend, err)
		}
		if err := res.WriteMarkdownReport(f); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
	}
	return f.Close()
}

func selectExperiments(spec string) ([]exp.Experiment, error) {
	if spec == "all" || spec == "" {
		return exp.All(), nil
	}
	var out []exp.Experiment
	for _, id := range strings.Split(spec, ",") {
		e, err := exp.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func writeCSV(dir string, table *exp.Table) error {
	path := filepath.Join(dir, table.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer f.Close()
	if err := table.WriteCSV(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
