// Command benchdiff compares two benchmark snapshots (BENCH_<pr>.json,
// written by cmd/benchsnap) leaf by leaf and prints one markdown table.
// It fails only on what repeats:
//
//   - exact leaves — the SLO, adversary and E27 scenario results, churn
//     kernel events, storage slots and probes, and the ledger counters
//     the repository benchmark pins at a fixed operation count — fail on
//     any inequality, and the message names the leaf;
//   - mem bytes_per_node, which is GC-settled, fails beyond 0.1%;
//   - every other leaf (wall clock, rates, code lines) is printed with
//     its ratio and never fails: bench/ measures wall clock, in pairs
//     and against bounds;
//   - two invariants of the newer snapshot alone: the swap mitigation's
//     TV stays below the attacked naive sampler's, and the oracle batch
//     runs at least 1.5x one worker on a machine with two or more CPUs.
//
// A section or record that only one snapshot carries, or carries at
// another size, prints a SKIPPED line. Snapshots taken with different
// toolchains or CPU counts draw a warning. A PR that moves an exact leaf
// on purpose commits the new snapshot: CI compares a fresh snapshot with
// the newest committed one.
//
// With no arguments it picks the two highest-numbered BENCH_*.json in
// the current directory, so `make benchdiff` shows what the latest PR
// moved. Exit status: 0 nothing failed, 1 a gate failed, 2 usage.
//
// Usage:
//
//	benchdiff [old.json new.json]
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// A record is one object of a snapshot that is compared as a unit: a
// section that is an object (churn, code, ledger) or one element of a
// section that is a list (mem, slo, adversary). Its backend goes into
// the name and its peers and fraction into at, so a record meets only
// its counterpart of the same backend and size.
type record struct {
	section, name, at string
	leaves            map[string]any // path below the record -> string, number or bool
}

// snapshot is one BENCH file: its top-level scalars, and its sections
// flattened into records keyed by name+at.
type snapshot struct {
	path     string
	env      map[string]any
	sections map[string]bool
	records  map[string]*record
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tree map[string]any
	if err := json.Unmarshal(data, &tree); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &snapshot{path: path, env: map[string]any{}, sections: map[string]bool{}, records: map[string]*record{}}
	for section, v := range tree {
		switch v := v.(type) {
		case map[string]any:
			s.add(section, section, v)
		case []any:
			for i, el := range v {
				if obj, ok := el.(map[string]any); ok {
					s.add(section, section+"["+strconv.Itoa(i)+"]", obj)
				}
			}
		default:
			s.env[section] = v
		}
	}
	return s, nil
}

// add files obj as a record of section. fallback names a record that
// has no backend.
func (s *snapshot) add(section, fallback string, obj map[string]any) {
	r := &record{section: section, name: fallback, leaves: map[string]any{}}
	if b, ok := obj["backend"].(string); ok {
		r.name = section + "[" + b + "]"
	}
	if n, ok := obj["peers"]; ok {
		r.at = " (n=" + show(n)
		if f, ok := obj["fraction"]; ok {
			r.at += " f=" + show(f)
		}
		r.at += ")"
	}
	var flatten func(prefix string, obj map[string]any)
	flatten = func(prefix string, obj map[string]any) {
		for k, v := range obj {
			switch v := v.(type) {
			case map[string]any:
				flatten(prefix+k+".", v)
			case []any: // hand-added run lists (BENCH_14 repo_benchmark)
			default:
				r.leaves[prefix+k] = v
			}
		}
	}
	flatten("", obj)
	for _, key := range []string{"backend", "peers", "fraction"} {
		delete(r.leaves, key)
	}
	s.sections[section] = true
	s.records[r.name+r.at] = r
}

// gate is how a leaf is held; its value is what the table prints.
type gate string

const (
	reported gate = ""      // printed with its ratio, never fails
	exact    gate = "exact" // fails on any inequality
	within   gate = "0.1%"  // fails beyond memTolerance
)

// memTolerance is the most mem bytes_per_node may move: the figure is
// heap growth after a forced collection, and two runs of one binary
// have read 1827.2085 and 1827.2078.
const memTolerance = 0.001

// scalingFloor is the least engine.speedup_wN the newer snapshot's
// oracle-batch-1m ledger may record on a machine with two or more CPUs.
// The oracle batch is CPU-bound and its forks share no written memory,
// so the measured value is 1.7 or more; 1.5 leaves room for a noisy
// neighbour and none for the 0.8 that contended cost counters produced.
const scalingFloor = 1.5

// wallLeaves are the wall-clock leaves of the scenario sections; every
// other leaf of slo, adversary and e27 is a pure function of the seed.
var wallLeaves = map[string]bool{
	"slo.run_wall_ms": true, "slo.requests_per_sec_wall": true,
	"adversary.wall_ms": true,
	"e27.build_wall_ms": true, "e27.run_wall_ms": true,
}

// exactLeaves are the leaves of the remaining sections that repeat bit
// for bit. The ledger names are the ones bench/bench_test.go pins in
// seededCounts and fixedCounts, plus the operation count itself.
var exactLeaves = map[string]bool{
	"churn.events": true, "churn.kernel_events": true,
	"mem.slots": true, "mem.probes_ok": true, "mem.probes": true,
}

func init() {
	for workload, names := range map[string][]string{
		"oracle-batch-1m":        {"ops", "msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "core.accept_ratio"},
		"chord-direct-16k":       {"ops", "msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "simnet.calls_per_sample", "dht.hops_per_lookup"},
		"kademlia-direct-16k":    {"ops", "msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "simnet.calls_per_sample", "dht.hops_per_lookup"},
		"chord-churn-simtime":    {"ops", "core.trials_per_sample", "core.next_steps_per_sample", "fail_share", "virt_p50_ms", "virt_p99_ms", "sim.kernel_events", "load.completed"},
		"kademlia-churn-simtime": {"ops", "core.trials_per_sample", "core.next_steps_per_sample", "fail_share", "virt_p50_ms", "virt_p99_ms", "sim.kernel_events", "load.completed"},
		"chord-wire-3d":          {"ops", "fail_share", "msgs_per_sample", "wire.calls_per_request"},
	} {
		for _, name := range names {
			exactLeaves["ledger."+workload+"."+name] = true
		}
	}
}

// classify returns the gate of a leaf from its section and its path
// with the record's key left out (slo.p99_ms, ledger.<workload>.<metric>).
func classify(section, path string) gate {
	rule := section + "." + path
	switch {
	case rule == "mem.bytes_per_node":
		return within
	case exactLeaves[rule]:
		return exact
	case section == "slo" || section == "adversary" || section == "e27":
		if !wallLeaves[rule] {
			return exact
		}
	}
	return reported
}

// show renders a leaf value: numbers in full, without exponent, and a
// leaf the snapshot lacks as "-".
func show(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case float64:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var oldPath, newPath string
	switch len(args) {
	case 0:
		var err error
		oldPath, newPath, err = latestPair(".")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
	case 2:
		oldPath, newPath = args[0], args[1]
	default:
		fmt.Fprintln(stderr, "usage: benchdiff [old.json new.json]")
		return 2
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	newSnap, err := load(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	for _, key := range []string{"go_version", "num_cpu", "gomaxprocs"} {
		was, is := oldSnap.env[key], newSnap.env[key]
		if was != nil && is != nil && was != is {
			fmt.Fprintf(stderr, "benchdiff: WARNING: cross-environment comparison: %s %s -> %s\n", key, show(was), show(is))
		}
	}
	failures := diff(stdout, oldSnap, newSnap)
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchdiff: FAIL", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// diff prints the table and the SKIPPED lines and returns one message
// per failed gate.
func diff(w io.Writer, oldSnap, newSnap *snapshot) (failures []string) {
	skipped := map[string]string{} // what -> why
	onlyIn := func(inOld bool) string {
		if inOld {
			return "only in " + oldSnap.path
		}
		return "only in " + newSnap.path
	}
	fmt.Fprintf(w, "# benchdiff %s -> %s\n\n| leaf | old | new | change | gate |\n|---|---|---|---|---|\n", oldSnap.path, newSnap.path)
	for _, key := range union(oldSnap.records, newSnap.records) {
		was, is := oldSnap.records[key], newSnap.records[key]
		// The two invariants hold within the newer snapshot alone: a ratio
		// of two equally broken snapshots reads 1.00x.
		if is != nil && is.section == "adversary" {
			naive, _ := is.leaves["naive_tv"].(float64)
			if swap, ok := is.leaves["swap_tv"].(float64); ok && naive > 0 && swap >= naive {
				failures = append(failures, fmt.Sprintf("invariant: %s: mitigation no longer holds (swap_tv %s >= naive_tv %s)", key, show(swap), show(naive)))
			}
		}
		if was == nil || is == nil {
			one, what := was, key
			if one == nil {
				one = is
			}
			if oldSnap.sections[one.section] != newSnap.sections[one.section] {
				what = one.section // one line for a whole section
			}
			skipped[what] = onlyIn(was != nil)
			continue
		}
		for _, path := range union(was.leaves, is.leaves) {
			a, b := was.leaves[path], is.leaves[path]
			g := classify(is.section, path)
			if g == reported && (a == nil || a == 0.0) && (b == nil || b == 0.0) {
				continue // a layer this workload does not have
			}
			name := is.name + "." + path + is.at
			change, fail := onlyIn(a != nil), false
			if a != nil && b != nil {
				change, fail = compare(g, a, b)
			}
			verdict := string(g)
			if fail {
				verdict += " FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s: %s -> %s", g, name, show(a), show(b)))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", name, show(a), show(b), change, verdict)
		}
	}
	if ledger := newSnap.records["ledger"]; ledger != nil {
		const leaf = "oracle-batch-1m.engine.speedup_wN"
		speedup, ok := ledger.leaves[leaf].(float64)
		cpus, _ := newSnap.env["num_cpu"].(float64)
		switch {
		case !ok:
		case cpus < 2:
			skipped[fmt.Sprintf("ledger.%s >= %.1f", leaf, scalingFloor)] = fmt.Sprintf("%s was taken on %s CPU, where two workers cannot run side by side", newSnap.path, show(cpus))
		case speedup < scalingFloor:
			failures = append(failures, fmt.Sprintf("invariant: ledger.%s: batch sampling does not scale: %.2fx one worker on %s CPUs, floor %.1fx", leaf, speedup, show(cpus), scalingFloor))
		}
	}
	fmt.Fprintln(w)
	for _, what := range union(skipped, nil) {
		fmt.Fprintf(w, "- SKIPPED %s: %s\n", what, skipped[what])
	}
	return failures
}

// compare returns a row's change column and whether gate g fails on it.
func compare(g gate, a, b any) (change string, fail bool) {
	if a == b {
		return "equal", false
	}
	x, xnum := a.(float64)
	y, ynum := b.(float64)
	if !xnum || !ynum || x == 0 {
		return "changed", g != reported
	}
	return fmt.Sprintf("%.2fx", y/x), g == exact || g == within && math.Abs(y/x-1) > memTolerance
}

// union returns the keys of both maps, sorted.
func union[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
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
