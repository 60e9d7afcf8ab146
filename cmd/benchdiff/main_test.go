package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// base is a snapshot in the shape benchsnap writes, cut down to one
// record a section.
const base = `{
  "go_version": "go1.24.0", "num_cpu": 2, "gomaxprocs": 2,
  "mem": [{"backend": "kademlia", "peers": 131072, "bytes_per_node": 2000, "build_wall_ms": 600, "slots": 131072}],
  "slo": [{"backend": "kademlia", "peers": 512, "p99_ms": 805.306368, "budget_consumed_pct": 0, "met": true, "run_wall_ms": 4000}],
  "adversary": [{"backend": "chord", "peers": 128, "fraction": 0.2, "naive_tv": 0.61, "swap_tv": 0.46, "wall_ms": 58}],
  "ledger": {"oracle-batch-1m": {"ops": 65536, "msgs_per_sample": 529.7396744659206, "engine.speedup_wN": 1.9, "proc.heap_mb": 38.8}},
  "code": {"total_lines": 15600}
}`

// diffEdited writes base with the old and new edits applied (pairs of
// from, to; every from must occur) and runs benchdiff over the two
// files.
func diffEdited(t *testing.T, oldEdits, newEdits []string) (exit int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, edits []string) string {
		body := base
		for i := 0; i < len(edits); i += 2 {
			if !strings.Contains(body, edits[i]) {
				t.Fatalf("edit %q matches nothing in base", edits[i])
			}
			body = strings.Replace(body, edits[i], edits[i+1], 1)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out, errs bytes.Buffer
	exit = run([]string{write("old.json", oldEdits), write("new.json", newEdits)}, &out, &errs)
	return exit, out.String(), errs.String()
}

func TestBenchdiffGates(t *testing.T) {
	oneCPU := []string{`"num_cpu": 2`, `"num_cpu": 1`}
	slowBatch := []string{`"engine.speedup_wN": 1.9`, `"engine.speedup_wN": 1.2`}
	noMitigation := []string{`"swap_tv": 0.46`, `"swap_tv": 0.61`}
	for _, tc := range []struct {
		name     string
		old, new []string
		exit     int
		want     []string // substrings of stdout + stderr
	}{
		{name: "unchanged", exit: 0,
			want: []string{"| mem[kademlia].slots (n=131072) | 131072 | 131072 | equal | exact |"}},
		{name: "exact leaf moved in the last digit", new: []string{"805.306368", "805.306369"}, exit: 1,
			want: []string{"FAIL exact: slo[kademlia].p99_ms (n=512): 805.306368 -> 805.306369", "| equal | exact |\n", "| 1.00x | exact FAIL |"}},
		{name: "exact leaf rises from zero", new: []string{`"budget_consumed_pct": 0`, `"budget_consumed_pct": 1.33`}, exit: 1,
			want: []string{"FAIL exact: slo[kademlia].budget_consumed_pct"}},
		{name: "objectives flip from met to missed", new: []string{`"met": true`, `"met": false`}, exit: 1,
			want: []string{"FAIL exact: slo[kademlia].met (n=512): true -> false"}},
		{name: "counted slots moved", new: []string{`"slots": 131072`, `"slots": 131071`}, exit: 1,
			want: []string{"FAIL exact: mem[kademlia].slots (n=131072): 131072 -> 131071"}},
		{name: "ledger counter moved", new: []string{"529.7396744659206", "529.7396744659208"}, exit: 1,
			want: []string{"FAIL exact: ledger.oracle-batch-1m.msgs_per_sample"}},
		{name: "wall leaf 30% slower", new: []string{`"run_wall_ms": 4000`, `"run_wall_ms": 5200`}, exit: 0,
			want: []string{"| slo[kademlia].run_wall_ms (n=512) | 4000 | 5200 | 1.30x |  |"}},
		{name: "ledger timing and code lines are reported", new: []string{"38.8", "77.6", "15600", "30000"}, exit: 0,
			want: []string{"| ledger.oracle-batch-1m.proc.heap_mb | 38.8 | 77.6 | 2.00x |  |", "| code.total_lines | 15600 | 30000 | 1.92x |  |"}},
		{name: "bytes_per_node +0.05%", new: []string{`"bytes_per_node": 2000`, `"bytes_per_node": 2001`}, exit: 0,
			want: []string{"| mem[kademlia].bytes_per_node (n=131072) | 2000 | 2001 | 1.00x | 0.1% |"}},
		{name: "bytes_per_node +0.5%", new: []string{`"bytes_per_node": 2000`, `"bytes_per_node": 2010`}, exit: 1,
			want: []string{"FAIL 0.1%: mem[kademlia].bytes_per_node (n=131072): 2000 -> 2010"}},
		// The invariants are read off the newer snapshot alone: two
		// equally broken snapshots still fail.
		{name: "batch speedup 1.2 on 2 CPUs", old: slowBatch, new: slowBatch, exit: 1,
			want: []string{"FAIL invariant: ledger.oracle-batch-1m.engine.speedup_wN", "1.20x one worker on 2 CPUs"}},
		{name: "batch speedup 1.2 on 1 CPU", new: append(oneCPU, slowBatch...), exit: 0,
			want: []string{"SKIPPED ledger.oracle-batch-1m.engine.speedup_wN >= 1.5: ", "was taken on 1 CPU", "WARNING: cross-environment comparison: num_cpu 2 -> 1"}},
		{name: "swap_tv >= naive_tv", old: noMitigation, new: noMitigation, exit: 1,
			want: []string{"FAIL invariant: adversary[chord] (n=128 f=0.2): mitigation no longer holds"}},
		{name: "environment mismatch warns", new: []string{"go1.24.0", "go1.23.1"}, exit: 0,
			want: []string{"WARNING: cross-environment comparison: go_version go1.24.0 -> go1.23.1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exit, stdout, stderr := diffEdited(t, tc.old, tc.new)
			if exit != tc.exit {
				t.Errorf("exit = %d, want %d\n%s%s", exit, tc.exit, stdout, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout+stderr, want) {
					t.Errorf("output lacks %q\n%s%s", want, stdout, stderr)
				}
			}
		})
	}
}

// TestBenchdiffPrintsSkipped: a comparison that cannot be made says so
// and does not fail. Before this test the first case printed nothing.
func TestBenchdiffPrintsSkipped(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  []string
		want []string
	}{
		{"mem records at different sizes", []string{`"peers": 131072`, `"peers": 2097152`},
			[]string{"SKIPPED mem[kademlia] (n=131072): only in ", "old.json\n", "SKIPPED mem[kademlia] (n=2097152): only in "}},
		{"newer snapshot taken on 1 CPU", []string{`"num_cpu": 2`, `"num_cpu": 1`},
			[]string{"SKIPPED ledger.oracle-batch-1m.engine.speedup_wN >= 1.5: ", "new.json was taken on 1 CPU"}},
		{"newer snapshot lacks the ledger", []string{`"ledger"`, `"note"`},
			[]string{"SKIPPED ledger: only in ", "SKIPPED note: only in "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exit, stdout, stderr := diffEdited(t, nil, tc.new)
			if exit != 0 {
				t.Errorf("exit = %d, want 0\n%s%s", exit, stdout, stderr)
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q\n%s", want, stdout)
				}
			}
		})
	}
}

// TestCommittedTrajectory runs benchdiff over the BENCH files at the
// repo root: every one loads and equals itself, retired sections
// included; PR 19 changed no call path and its snapshot passes against
// PR 18's; and the mem records PR 18 took at smaller sizes are named
// as skipped.
func TestCommittedTrajectory(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) < 15 {
		t.Fatalf("found %d BENCH files (%v), want the committed trajectory", len(paths), err)
	}
	for _, p := range paths {
		var out, errs bytes.Buffer
		if exit := run([]string{p, p}, &out, &errs); exit != 0 {
			t.Errorf("%s against itself: exit = %d\n%s", p, exit, errs.String())
		}
	}
	var out, errs bytes.Buffer
	if exit := run([]string{"../../BENCH_18.json", "../../BENCH_19.json"}, &out, &errs); exit != 0 {
		t.Errorf("BENCH_18 -> BENCH_19: exit = %d, want 0\n%s", exit, errs.String())
	}
	out.Reset()
	if exit := run([]string{"../../BENCH_17.json", "../../BENCH_18.json"}, &out, &errs); exit != 0 {
		t.Errorf("BENCH_17 -> BENCH_18: exit = %d, want 0\n%s", exit, errs.String())
	}
	for _, rec := range []string{"mem[chord] (n=10000000)", "mem[chord] (n=1000000)", "mem[kademlia] (n=2097152)", "mem[kademlia] (n=131072)"} {
		if !strings.Contains(out.String(), "SKIPPED "+rec+": only in ") {
			t.Errorf("BENCH_17 -> BENCH_18 does not report %s as skipped", rec)
		}
	}
}
