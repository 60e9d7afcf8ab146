package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestAllRegistered(t *testing.T) {
	t.Parallel()
	exps := All()
	if len(exps) != 30 {
		t.Fatalf("registered %d experiments, want 30", len(exps))
	}
	seen := make(map[string]bool, len(exps))
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// Ordered by numeric ID.
	num := func(id string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "E"))
		if err != nil {
			t.Fatalf("experiment id %q is not E<n>", id)
		}
		return n
	}
	for i := 1; i < len(exps); i++ {
		if num(exps[i-1].ID) >= num(exps[i].ID) {
			t.Errorf("experiments out of order: %s before %s", exps[i-1].ID, exps[i].ID)
		}
	}
}

// TestDesignIndexMatchesAll keeps DESIGN.md §4's hand-kept table and the
// experiments slice on one ID set: a row added to one and not the other
// fails here.
func TestDesignIndexMatchesAll(t *testing.T) {
	t.Parallel()
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) +\|`).FindAllSubmatch(design, -1) {
		documented = append(documented, string(m[1]))
	}
	var declared []string
	for _, e := range All() {
		declared = append(declared, e.ID)
	}
	if !slices.Equal(documented, declared) {
		t.Errorf("DESIGN.md §4 rows and All() disagree:\n DESIGN %v\n All()  %v", documented, declared)
	}
}

func TestByID(t *testing.T) {
	t.Parallel()
	e, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "E1" {
		t.Errorf("ByID returned %q", e.ID)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id should fail")
	}
}

// TestExperimentsRunQuick executes every experiment in Quick mode,
// validates the table structure, and compares columns and rows with the
// table pinned in testdata/quick/<ID>.csv (`make exp-golden` re-records
// them: `experiments -quick -seed 12345 -csv`). Each experiment runs at
// Workers 1 and at Workers 4 against the same file, which is the check
// on RunConfig.Workers' promise that the worker count never changes a
// table's contents. E30 has no pin: its cells are measured heap bytes
// and wall time. This is the end-to-end integration test of the whole
// reproduction pipeline.
func TestExperimentsRunQuick(t *testing.T) {
	t.Parallel()
	for _, e := range All() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", e.ID, workers), func(t *testing.T) {
				t.Parallel()
				table, err := e.Execute(RunConfig{Seed: 12345, Quick: true, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				if table.ID != e.ID {
					t.Errorf("table ID %q != experiment ID %q", table.ID, e.ID)
				}
				if len(table.Columns) < 2 {
					t.Errorf("%s: only %d columns", e.ID, len(table.Columns))
				}
				if len(table.Rows) == 0 {
					t.Errorf("%s: no rows", e.ID)
				}
				for i, row := range table.Rows {
					if len(row) != len(table.Columns) {
						t.Errorf("%s row %d: %d cells for %d columns", e.ID, i, len(row), len(table.Columns))
					}
				}
				var buf bytes.Buffer
				if err := table.Render(&buf); err != nil {
					t.Fatalf("%s render: %v", e.ID, err)
				}
				if !strings.Contains(buf.String(), e.ID) {
					t.Errorf("%s: render missing id", e.ID)
				}
				var csvBuf bytes.Buffer
				if err := table.WriteCSV(&csvBuf); err != nil {
					t.Fatalf("%s csv: %v", e.ID, err)
				}
				if e.ID != "E30" {
					compareWithPin(t, table)
				}
			})
		}
	}
}

// compareWithPin fails when the table's columns or rows differ from
// testdata/quick/<ID>.csv, naming the first row that does.
func compareWithPin(t *testing.T, table *Table) {
	t.Helper()
	path := filepath.Join("testdata", "quick", table.ID+".csv")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%s has no pinned table (run `make exp-golden`): %v", table.ID, err)
	}
	defer f.Close()
	pinned, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	got := append([][]string{table.Columns}, table.Rows...)
	for i := 0; i < len(got) && i < len(pinned); i++ {
		if !slices.Equal(got[i], pinned[i]) {
			// Line 1 of the file is the column header.
			t.Fatalf("%s differs from %s at line %d:\n  got    %q\n  pinned %q", table.ID, path, i+1, got[i], pinned[i])
		}
	}
	if len(got) != len(pinned) {
		t.Fatalf("%s has %d rows, %s pins %d", table.ID, len(got)-1, path, len(pinned)-1)
	}
}

// cell parses table cell (row, col-name) as float.
func cell(t *testing.T, table *Table, row int, col string) float64 {
	t.Helper()
	for i, c := range table.Columns {
		if c == col {
			v, err := strconv.ParseFloat(table.Rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell %s[%d]: %v", col, row, err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}

func TestE1ClaimHolds(t *testing.T) {
	t.Parallel()
	e, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 777, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for row := range table.Rows {
		if rel := cell(t, table, row, "relDev"); rel > 1e-9 {
			t.Errorf("row %d: relative deviation %v too large for exact uniformity", row, rel)
		}
		if p := cell(t, table, row, "chi2_p"); p < 1e-4 {
			t.Errorf("row %d: chi-square rejected uniformity (p = %v)", row, p)
		}
	}
}

func TestE4E6ClaimsHold(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"E4", "E6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		table, err := e.Execute(RunConfig{Seed: 99, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for row := range table.Rows {
			if v := cell(t, table, row, "violations"); v != 0 {
				t.Errorf("%s row %d: %v violations", id, row, v)
			}
		}
	}
}

func TestE8BiasGrows(t *testing.T) {
	t.Parallel()
	e, err := ByID("E8")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 2 {
		t.Fatal("need at least two rows")
	}
	first := cell(t, table, 0, "biasRatio")
	last := cell(t, table, len(table.Rows)-1, "biasRatio")
	if last <= first {
		t.Errorf("bias ratio did not grow: %v -> %v", first, last)
	}
}

func TestE14UniformResists(t *testing.T) {
	t.Parallel()
	e, err := ByID("E14")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 31, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for row := range table.Rows {
		uni := cell(t, table, row, "uniform_badRate")
		naive := cell(t, table, row, "naive_badRate")
		if uni > naive {
			t.Errorf("row %d: uniform bad rate %v exceeds naive %v", row, uni, naive)
		}
	}
	// At 30% byzantine the naive sampler must lose committees.
	lastNaive := cell(t, table, len(table.Rows)-1, "naive_badRate")
	if lastNaive == 0 {
		t.Error("naive sampler lost no committees at 30% adversary; attack model broken")
	}
}

func TestE16TruncationMonotone(t *testing.T) {
	t.Parallel()
	e, err := ByID("E16")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 41, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Within each n block, truncated mass must be non-increasing in the
	// step bound and reach ~0 at the paper's bound (the final row).
	prevSteps := -1
	prevMass := 1.0
	for row := range table.Rows {
		steps := int(cell(t, table, row, "maxSteps"))
		mass := cell(t, table, row, "truncatedMass")
		if steps > prevSteps && prevSteps >= 0 {
			if mass > prevMass+1e-12 {
				t.Errorf("row %d: truncated mass grew with more steps (%v -> %v)", row, prevMass, mass)
			}
		}
		prevSteps, prevMass = steps, mass
		if steps < 0 {
			t.Errorf("row %d: negative steps", row)
		}
	}
	last := len(table.Rows) - 1
	if mass := cell(t, table, last, "truncatedMass"); mass > 1e-9 {
		t.Errorf("paper bound still truncates mass %v", mass)
	}
}

func TestE18MatchesPrediction(t *testing.T) {
	t.Parallel()
	e, err := ByID("E18")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 43, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for row := range table.Rows {
		got := cell(t, table, row, "meanDraws")
		want := cell(t, table, row, "predictedDraws")
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("row %d: mean draws %v far from predicted %v", row, got, want)
		}
		tvd := cell(t, table, row, "tvdToTarget")
		floor := cell(t, table, row, "noiseFloor")
		if tvd > 2*floor {
			t.Errorf("row %d: TVD %v above twice the noise floor %v", row, tvd, floor)
		}
	}
}

func TestE20VirtualFlattens(t *testing.T) {
	t.Parallel()
	e, err := ByID("E20")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 47, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for row := range table.Rows {
		plain := cell(t, table, row, "plainMax*n")
		virt := cell(t, table, row, "virtMax*n")
		if virt >= plain {
			t.Errorf("row %d: virtual nodes did not flatten load (%v vs %v)", row, virt, plain)
		}
	}
}

func TestTableHelpers(t *testing.T) {
	t.Parallel()
	table := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	if err := table.AddRow("1"); err == nil {
		t.Error("short row should fail")
	}
	if err := table.AddRow("1", "2"); err != nil {
		t.Fatal(err)
	}
	table.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "note 7") {
		t.Errorf("render missing note: %s", out)
	}
	var csvBuf bytes.Buffer
	if err := table.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(csvBuf.String()); got != "a,b\n1,2" {
		t.Errorf("csv = %q", got)
	}
	// Inside a Run the same mistake is the experiment's error.
	short := Experiment{ID: "X", Columns: []string{"a", "b"}, Run: func(_ RunConfig, t *Table) error {
		t.row("1")
		return nil
	}}
	if _, err := short.Execute(RunConfig{}); err == nil {
		t.Error("Execute should fail on a short row")
	}
}

// TestE25LatencyGrowsWithN spot-checks the acceptance criterion behind
// E25: under a constant-latency model, mean per-sample virtual latency
// rises with n on every backend (the log-n growth measured in time
// units), and the quantile columns are ordered.
func TestE25LatencyGrowsWithN(t *testing.T) {
	t.Parallel()
	e, err := ByID("E25")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 3 backends x 2 sizes, grouped by backend.
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(table.Rows))
	}
	for b := 0; b < 3; b++ {
		small := cell(t, table, 2*b, "mean_ms")
		large := cell(t, table, 2*b+1, "mean_ms")
		backend := table.Rows[2*b][0]
		if large <= small {
			t.Errorf("%s: mean latency %v at larger n <= %v at smaller n", backend, large, small)
		}
		p50 := cell(t, table, 2*b, "p50_ms")
		p99 := cell(t, table, 2*b, "p99_ms")
		if p99 < p50 {
			t.Errorf("%s: p99 %v below p50 %v", backend, p99, p50)
		}
	}
}

// TestE26RunsBothSubstrates checks E26's structural promises: both
// overlays appear, some samples complete during churn on each, and the
// overlay ring is repaired after settling.
func TestE26RunsBothSubstrates(t *testing.T) {
	t.Parallel()
	e, err := ByID("E26")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Execute(RunConfig{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]bool{}
	for i, row := range table.Rows {
		backends[row[0]] = true
		if ok := cell(t, table, i, "samplesOK"); ok <= 0 {
			t.Errorf("row %d (%s): no sample completed during churn", i, row[0])
		}
		if ringOK := row[len(row)-2]; ringOK != "yes" {
			t.Errorf("row %d (%s): ring not repaired after settling", i, row[0])
		}
	}
	if !backends["chord"] || !backends["kademlia"] {
		t.Errorf("substrates covered = %v, want chord and kademlia", backends)
	}
}
