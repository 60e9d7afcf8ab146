package exp

import (
	"strconv"
	"testing"
)

// TestE29MitigationHoldsUnderAttack pins the adversarial headline: at a
// 20% Byzantine fraction the swap-audit mitigation's TV distance from
// uniform stays below the naive sampler's on both overlay backends, and
// the naive sampler's bias under attack clearly exceeds its honest
// floor. The quick-mode table is a pure function of the seed, so these
// are exact gates, not flaky statistical ones — this is the CI smoke
// test of the whole adversarial pipeline (attack plan, interceptors,
// bias statistics, mitigation sampler).
func TestE29MitigationHoldsUnderAttack(t *testing.T) {
	t.Parallel()
	e, err := ByID("E29")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		for i, c := range table.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing from %v", name, table.Columns)
		return -1
	}
	bCol, fCol, sCol, tvCol, failCol := col("backend"), col("frac"), col("sampler"), col("tv"), col("fail_rate")
	tv := make(map[string]float64)    // "backend/frac/sampler" -> tv
	fails := make(map[string]float64) // same key -> fail_rate
	for _, row := range table.Rows {
		if row[sCol] == "eclipse-capture" {
			continue
		}
		v, err := strconv.ParseFloat(row[tvCol], 64)
		if err != nil {
			t.Fatalf("bad tv %q: %v", row[tvCol], err)
		}
		f, err := strconv.ParseFloat(row[failCol], 64)
		if err != nil {
			t.Fatalf("bad fail_rate %q: %v", row[failCol], err)
		}
		key := row[bCol] + "/" + row[fCol] + "/" + row[sCol]
		tv[key] = v
		fails[key] = f
	}
	for _, backend := range []string{"chord", "kademlia"} {
		naive, ok := tv[backend+"/0.2/naive"]
		if !ok {
			t.Fatalf("%s: no naive row at frac 0.2", backend)
		}
		swap, ok := tv[backend+"/0.2/swap"]
		if !ok {
			t.Fatalf("%s: no swap row at frac 0.2", backend)
		}
		honest := tv[backend+"/0/naive"]
		// (a) the attack measurably biases the naive sampler.
		if naive < honest+0.02 {
			t.Errorf("%s: naive TV %.4f under 20%% subversion vs honest floor %.4f; attack signal missing", backend, naive, honest)
		}
		// (b) the mitigation holds strictly below the attacked baseline.
		if swap >= naive {
			t.Errorf("%s: swap TV %.4f not below naive TV %.4f at 20%% subversion", backend, swap, naive)
		}
		// The mitigation's price stays bounded: it must not degrade
		// into rejecting most samples to win the bias comparison.
		if rate := fails[backend+"/0.2/swap"]; rate > 0.25 {
			t.Errorf("%s: swap failure rate %.4f at 20%% subversion, want <= 0.25", backend, rate)
		}
	}
}

// TestE29Deterministic re-runs the quick table under the same seed and
// requires cell-identical output: every lie, coalition pick and
// bootstrap replicate must be a pure function of the seed.
func TestE29Deterministic(t *testing.T) {
	t.Parallel()
	e, err := ByID("E29")
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]string {
		table, err := e.Execute(RunConfig{Seed: 77, Quick: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return table.Rows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("row %d cell %d: %q vs %q", i, j, a[i][j], b[i][j])
			}
		}
	}
}
