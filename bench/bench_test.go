package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smokeOps is each workload at about a hundredth of a ten-second run.
var smokeOps = map[string]int{
	"oracle-batch-1m":        4096,
	"chord-direct-16k":       600,
	"kademlia-direct-16k":    100,
	"chord-churn-simtime":    300,
	"kademlia-churn-simtime": 100,
	"chord-wire-3d":          9,
}

// The traced-pass metrics that count what the program did must repeat
// bit for bit at a fixed operation count. seededCounts follow the
// sampler's own stream, so another seed must move them; fixedCounts
// come out of a simtime scenario or the wire request stream, which no
// seed reaches (see netSeed).
var seededCounts = map[string][]string{
	"oracle-batch-1m":        {"msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "core.accept_ratio"},
	"chord-direct-16k":       {"msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "simnet.calls_per_sample", "dht.hops_per_lookup"},
	"kademlia-direct-16k":    {"msgs_per_sample", "core.trials_per_sample", "core.next_steps_per_sample", "simnet.calls_per_sample", "dht.hops_per_lookup"},
	"chord-churn-simtime":    {"core.trials_per_sample", "core.next_steps_per_sample"},
	"kademlia-churn-simtime": {"core.trials_per_sample", "core.next_steps_per_sample"},
}

var fixedCounts = map[string][]string{
	"chord-churn-simtime":    {"fail_share", "virt_p50_ms", "virt_p99_ms", "sim.kernel_events", "load.completed"},
	"kademlia-churn-simtime": {"fail_share", "virt_p50_ms", "virt_p99_ms", "sim.kernel_events", "load.completed"},
	"chord-wire-3d":          {"fail_share", "msgs_per_sample", "wire.calls_per_request"},
}

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

func TestSpecNames(t *testing.T) {
	spec, _ := testSpec(t)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !metricNameRE.MatchString(m.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which the program does not have", w.Name)
		}
	}
}

// pass runs one pass of a workload at smoke scale and checks it against
// the declared names.
func pass(t *testing.T, spec *benchSpec, root, name string, seed uint64, traced bool) values {
	t.Helper()
	e := env{seed: seed, ops: smokeOps[name], root: root}
	run := workloads[name].run
	if traced {
		run = workloads[name].trace
	}
	out, err := run(e)
	if err != nil {
		t.Fatalf("%s seed %d traced=%t: %v", name, seed, traced, err)
	}
	for _, v := range out.violations {
		t.Errorf("%s seed %d traced=%t: %s", name, seed, traced, v)
	}
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("%s seed %d traced=%t: attempted %d, failed %d", name, seed, traced, out.attempted, out.failed)
	}
	if _, _, err := collect(spec, traced, out.vals); err != nil {
		t.Error(err)
	}
	return out.vals
}

func TestWorkloads(t *testing.T) {
	spec, root := testSpec(t)
	produced := map[string]bool{}
	for _, w := range spec.Workloads {
		name := w.Name
		t.Run(name, func(t *testing.T) {
			if name == "chord-wire-3d" && testing.Short() {
				t.Skip("spawns daemon processes")
			}
			// End to end: every declared metric, none other (collect
			// checks both), and the one exact share repeats.
			a := pass(t, spec, root, name, 1, false)
			b := pass(t, spec, root, name, 1, false)
			if a["ok_share"] != b["ok_share"] {
				t.Errorf("ok_share %v and %v on the same seed", a["ok_share"], b["ok_share"])
			}
			ta := pass(t, spec, root, name, 1, true)
			tb := pass(t, spec, root, name, 1, true)
			tc := pass(t, spec, root, name, 2, true)
			for m := range ta {
				produced[m] = true
			}
			for _, m := range seededCounts[name] {
				if _, ok := ta[m]; !ok {
					t.Errorf("%s not emitted", m)
				}
				if ta[m] != tb[m] {
					t.Errorf("%s = %v and %v on the same seed", m, ta[m], tb[m])
				}
				if ta[m] == tc[m] {
					t.Errorf("%s = %v on seeds 1 and 2 alike", m, ta[m])
				}
			}
			for _, m := range fixedCounts[name] {
				if _, ok := ta[m]; !ok {
					t.Errorf("%s not emitted", m)
				}
				if ta[m] != tb[m] || ta[m] != tc[m] {
					t.Errorf("%s = %v, %v and %v, though no seed reaches it", m, ta[m], tb[m], tc[m])
				}
			}
			// At smoke scale a batch call is mostly tally allocation, and
			// the wire probe mostly waits; the ledger must add up where a
			// sample is all the traced loop does.
			if share := ta["trace.self_sum_share"]; strings.HasSuffix(name, "-direct-16k") && (share < 0.95 || share > 1) {
				t.Errorf("span self times cover %.3f of the traced wall, want 0.95 to 1", share)
			}
		})
	}
	if testing.Short() || t.Failed() {
		return
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %q is declared but no workload produces it", m.Name)
		}
	}
}

// TestReportFormat checks the printed report of one run: metric lines
// of four fields and the JSON result last.
func TestReportFormat(t *testing.T) {
	spec, root := testSpec(t)
	var buf bytes.Buffer
	const name = "chord-direct-16k"
	if _, err := runWorkload(&buf, spec, env{seed: 3, ops: smokeOps[name], root: root}, name, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != int64(smokeOps[name]) || len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("result %+v", res)
	}
	metricLines := 0
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		metricLines++
		if f := strings.Fields(line); len(f) != 4 || f[0] != name {
			t.Errorf("metric line %q is not \"workload metric value unit\"", line)
		}
	}
	if metricLines != len(spec.EndToEnd) {
		t.Errorf("%d metric lines, want %d", metricLines, len(spec.EndToEnd))
	}
}
