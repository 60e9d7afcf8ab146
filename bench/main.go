// Command bench is the repository benchmark: six named workloads, the
// end-to-end cost of a sample on each, and — in a separate traced pass
// — a per-layer ledger measured from outside, by decorating the public
// interfaces a sample crosses. BENCHMARK.json (one directory up) names
// every workload and metric; README.md explains them.
//
//	go run -C bench . -workload chord-direct-16k -seed 1 -seconds 10 -trace 0
//	go run -C bench .              # every workload, each in a fresh child process
//	go run -C bench . -trace 1     # the same, then the traced pass of each
//	go run -C bench . -selfcheck   # two untraced sets of runs, gaps against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// metricSpec and benchSpec mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricValue and result are the last line of a single-workload run.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: parsing BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// collect turns a workload's values into the declared metric list of
// the pass that ran. A workload may not invent names; an end-to-end
// metric must be present on every workload and is never zero; a
// per-layer metric a workload has no such layer for reads 0.
func collect(spec *benchSpec, traced bool, vals values) (map[string]metricValue, []metricSpec, error) {
	declared, other := spec.EndToEnd, spec.PerLayer
	if traced {
		declared, other = other, declared
	}
	known := make(map[string]bool, len(declared)+len(other))
	for _, m := range declared {
		known[m.Name] = true
	}
	for name := range vals {
		if !known[name] {
			return nil, nil, fmt.Errorf("bench: workload emitted %q, which BENCHMARK.json does not declare for this pass", name)
		}
	}
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := vals[m.Name]
		if !traced && (!ok || v == 0) {
			return nil, nil, fmt.Errorf("bench: end-to-end metric %q missing or zero", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, declared, nil
}

// runWorkload runs one workload in this process and prints its report:
// a header, one "workload metric value unit" line per metric, and the
// JSON result as the last line.
func runWorkload(w io.Writer, spec *benchSpec, e env, name string, traced bool) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	fmt.Fprintf(w, "# bench %s commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g ops=%d trace=%t\n",
		name, commit(e.root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), e.seed, e.seconds, e.ops, traced)
	run := wl.run
	if traced {
		run = wl.trace
	}
	out, err := run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, note := range out.notes {
		fmt.Fprintf(w, "# %s: %s\n", name, note)
	}
	metrics, declared, err := collect(spec, traced, out.vals)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range declared {
		fmt.Fprintf(w, "%s %s %v %s\n", name, m.Name, metrics[m.Name].Value, m.Unit)
	}
	res := &result{Correct: len(out.violations) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	for _, v := range out.violations {
		fmt.Fprintf(w, "# %s: VIOLATION: %s\n", name, v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

// commit names the checkout's commit, or "unknown" outside a git tree.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload in a fresh child process of this binary,
// passing its report through, and returns the parsed last line.
func runChild(e env, name string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(e.seed),
		"-seconds", fmt.Sprint(e.seconds), "-ops", fmt.Sprint(e.ops), "-trace", trace)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("bench: workload %s printed no result: %w", name, err)
	}
	return &res, nil
}

// runSet runs every workload once, each in its own child process.
func runSet(spec *benchSpec, e env, traced bool) (map[string]*result, error) {
	set := make(map[string]*result, len(spec.Workloads))
	for _, w := range spec.Workloads {
		res, err := runChild(e, w.Name, traced)
		if err != nil {
			return nil, err
		}
		set[w.Name] = res
	}
	return set, nil
}

// selfcheckRounds is how many runs of each workload make one side of
// the selfcheck. One run a side is not enough on a shared box: machine
// speed drifts by 10% over a minute, so single runs of the same code
// land a bound apart now and then; medians of three, with the two
// sides taking turns, do not.
const selfcheckRounds = 3

// selfcheck runs two untraced sets of runs, alternating between them,
// and compares the median of each end-to-end metric against its own
// bound.
func selfcheck(spec *benchSpec, e env) error {
	var sides [2]map[string][]*result
	for i := range sides {
		sides[i] = make(map[string][]*result)
	}
	for round := 0; round < selfcheckRounds; round++ {
		for _, side := range sides {
			set, err := runSet(spec, e, false)
			if err != nil {
				return err
			}
			for name, res := range set {
				side[name] = append(side[name], res)
			}
		}
	}
	medianOf := func(runs []*result, metric string) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[metric].Value
		}
		return median(xs)
	}
	var over []string
	fmt.Printf("# selfcheck: medians of %d runs a side: workload metric first second gap bound\n", selfcheckRounds)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := medianOf(sides[0][w.Name], m.Name), medianOf(sides[1][w.Name], m.Name)
			gap := math.Abs(b-a) / a
			fmt.Printf("%s %s %v %v %.4f %.2f\n", w.Name, m.Name, a, b, gap, m.Bound)
			if gap > m.Bound {
				over = append(over, w.Name+"/"+m.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("bench: selfcheck: two sets of runs of the same code differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

func run() error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	workload := flag.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", float64(spec.RunSeconds), "how long one run measures")
	ops := flag.Int("ops", 0, "run this many operations in place of a timed window, so exact counts repeat")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	check := flag.Bool("selfcheck", false, "run two untraced sets of runs and compare their medians against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", flag.Arg(0))
	}
	e := env{seed: *seed, seconds: *seconds, ops: *ops, root: root}
	switch {
	case *check:
		return selfcheck(spec, e)
	case *workload != "":
		res, err := runWorkload(os.Stdout, spec, e, *workload, *trace != 0)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("bench: %s: outputs failed verification", *workload)
		}
		return nil
	}
	if _, err := runSet(spec, e, false); err != nil {
		return err
	}
	if *trace != 0 {
		_, err = runSet(spec, e, true)
	}
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
