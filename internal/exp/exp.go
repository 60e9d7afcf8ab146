// Package exp is the experiment harness that regenerates every
// quantitative claim of King & Saia's paper as a table or figure-series.
// DESIGN.md carries the experiment index (E1-E30); each table states the
// paper's claim and carries its own verdict notes. Each experiment
// supports a Quick mode (small sweeps, used by tests and smoke runs) and
// a Full mode.
//
// An experiment is a declaration in the experiments slice (index.go):
// its index entry, the header of the table it fills, and a Run function
// that fills it. Execute makes the table; sweepRows spreads independent
// sweep points over the worker budget; measure.go and scenario.go hold
// the seeded constructors and measuring helpers the Run functions share.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Table is a rendered experiment result: a paper-style table or the data
// series behind a figure.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   []string // free-form findings (fit slopes, verdicts)

	err error // first row-arity mistake of a Run function (see row)
}

// AddRow appends a formatted row; the value count must match Columns.
func (t *Table) AddRow(values ...string) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("exp: row has %d values for %d columns", len(values), len(t.Columns))
	}
	t.Rows = append(t.Rows, values)
	return nil
}

// row is AddRow for Run functions: the first arity mistake is kept and
// Execute returns it as the experiment's error, so the loops that fill
// a table do not each check for a programming error.
func (t *Table) row(values ...string) {
	if err := t.AddRow(values...); err != nil && t.err == nil {
		t.err = err
	}
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Claim != "" {
		if _, err := fmt.Fprintf(w, "claim: %s\n", t.Claim); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, v := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], v)
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes the table data as CSV (columns header plus rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunConfig selects the sweep size and seeds an experiment run.
type RunConfig struct {
	// Seed roots all randomness of the run; equal seeds reproduce equal
	// tables.
	Seed uint64
	// Quick selects reduced sweeps for tests and smoke runs.
	Quick bool
	// Workers bounds the goroutines an experiment may use in total
	// across its sweep points and any batch sampling inside them
	// (default GOMAXPROCS). Experiments divide the budget between
	// nesting levels rather than multiplying it. Every sweep point is
	// seeded independently, so the worker count never changes a
	// table's contents.
	Workers int
	// Latency is the -latency flag spec (sim.ParseModel syntax) used by
	// the simulated-time experiments (E25-E28); empty selects their
	// default constant 1ms round trip.
	Latency string
}

// workerCount resolves the effective worker budget.
func (cfg RunConfig) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns the first error (remaining iterations are
// skipped once an error is observed). Iterations must be independent;
// experiments use it to spread sweep points over cores while writing
// results into per-index slots so row order stays deterministic.
func forEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return *errp
	}
	return nil
}

// sweepRows runs point(i, row) for every i in [0, n) across the run's
// worker budget and appends the rows each point emitted to t in index
// order, whichever point finishes first. Points must be independent:
// each seeds its own generators and writes only through row (or into
// its own slot of a caller-owned slice).
func sweepRows(cfg RunConfig, t *Table, n int, point func(i int, row func(cells ...string)) error) error {
	rows := make([][][]string, n)
	err := forEach(cfg.workerCount(), n, func(i int) error {
		return point(i, func(cells ...string) { rows[i] = append(rows[i], cells) })
	})
	if err != nil {
		return err
	}
	for _, group := range rows {
		for _, cells := range group {
			t.row(cells...)
		}
	}
	return nil
}

// RunResult is one experiment's outcome from RunAll.
type RunResult struct {
	Experiment Experiment
	Table      *Table
	Err        error
	Elapsed    time.Duration
}

// RunAll executes the experiments across at most workers goroutines
// (default GOMAXPROCS when workers <= 0) and returns their results in
// input order. The budget is divided, not multiplied: with c
// experiments in flight, each runs with Workers = workers/c for its own
// sweep points, so the whole run stays within the overall bound.
// Experiments are independent by construction — each seeds its own
// generators from cfg.Seed — so concurrent execution reproduces exactly
// the tables a sequential run would.
func RunAll(cfg RunConfig, exps []Experiment, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	concurrent := min(workers, max(len(exps), 1))
	cfg.Workers = max(1, workers/concurrent)
	results := make([]RunResult, len(exps))
	_ = forEach(concurrent, len(exps), func(i int) error {
		start := time.Now()
		table, err := exps[i].Execute(cfg)
		results[i] = RunResult{Experiment: exps[i], Table: table, Err: err, Elapsed: time.Since(start)}
		return nil // a failed experiment must not cancel its siblings
	})
	return results
}

// Experiment is one reproducible claim check, declared: its index entry
// (ID, Title, Claim — what -list and DESIGN.md §4 print), the header of
// the table it fills (the table's own, narrower title and claim, and
// its columns), and the function that fills it.
type Experiment struct {
	ID    string
	Title string
	Claim string

	TableTitle string
	TableClaim string
	Columns    []string

	// Run fills t, which arrives with the declared header and no rows.
	// It adds rows with t.row (or sweepRows) and notes with t.AddNote,
	// and may extend t.Title with what only the run knows (the latency
	// model's name).
	Run func(cfg RunConfig, t *Table) error
}

// Execute runs the experiment: it makes the declared table, has Run
// fill it, and returns it. A row whose cell count does not match the
// declared columns fails the experiment.
func (e Experiment) Execute(cfg RunConfig) (*Table, error) {
	t := &Table{ID: e.ID, Title: e.TableTitle, Claim: e.TableClaim, Columns: e.Columns}
	if err := e.Run(cfg, t); err != nil {
		return nil, err
	}
	if t.err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, t.err)
	}
	return t, nil
}

// All returns every registered experiment, ordered by ID.
func All() []Experiment { return slices.Clone(experiments) }

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// sweep returns the experiment's n values.
func sweep(quick bool, full ...int) []int {
	if !quick {
		return full
	}
	if len(full) <= 2 {
		return full
	}
	return full[:2]
}

// fmtF renders a float compactly.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// fmtI renders an int.
func fmtI(v int) string { return strconv.Itoa(v) }

// fmtI64 renders an int64.
func fmtI64(v int64) string { return strconv.FormatInt(v, 10) }

// fmtU renders a uint64.
func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }
