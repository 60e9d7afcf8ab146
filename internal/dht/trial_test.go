package dht

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// countingDraw draws uniform starts from seed and counts them.
func countingDraw(seed uint64) (func() ring.Point, *int) {
	rng := rand.New(rand.NewPCG(seed, seed))
	n := 0
	return func() ring.Point { n++; return ring.Point(rng.Uint64()) }, &n
}

// TestOracleTrialsMatchStepwise runs one stream of trials through an
// exclusive oracle runner and through NewRunner over the oracle: every
// outcome must be the same, the runner must leave the meter alone until
// Flush, Flush must then charge exactly what the stepwise runner
// charged, and a second Flush nothing. The runner draws its starts a
// window at a time and runs every start it drew, in order.
func TestOracleTrialsMatchStepwise(t *testing.T) {
	t.Parallel()
	plain, err := GenerateOracle(rand.New(rand.NewPCG(5, 5)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	virtual, err := NewVirtualOracle(rand.New(rand.NewPCG(6, 6)), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Oracle{"plain": plain, "virtual": virtual} {
		ideal := ring.FracToUnits(1 / (7 * float64(o.Size())))
		for _, w := range []Walk{{ideal, 42}, {ideal / 8, 42}, {ideal, 1}, {3 * ideal, 2}} {
			exDraw, drawn := countingDraw(9)
			stDraw, _ := countingDraw(9)
			ex, st := o.Trials(w, exDraw, true), NewRunner(o, w, stDraw)
			var pruned, accepted int
			const trials = 300
			start := o.Meter().Snapshot()
			for i := 0; i < trials; i++ {
				before := o.Meter().Snapshot()
				want := st.Trial()
				stepwise := o.Meter().Snapshot().Sub(before)
				got := ex.Trial()
				if got != want {
					t.Fatalf("%s %+v trial %d: runner %+v, stepwise %+v", name, w, i, got, want)
				}
				if w := (i/window + 1) * window; *drawn != w {
					t.Fatalf("%s trial %d: runner drew %d starts, want %d", name, i, *drawn, w)
				}
				before = o.Meter().Snapshot()
				ex.Flush()
				if c := o.Meter().Snapshot().Sub(before); c != stepwise {
					t.Fatalf("%s %+v trial %d: flushed %+v, stepwise charged %+v", name, w, i, c, stepwise)
				}
				if got.Pruned {
					pruned++
				}
				if got.Accepted {
					accepted++
				}
			}
			if pruned == 0 && w.MaxSteps > 1 || accepted == 0 {
				t.Errorf("%s %+v: %d pruned and %d accepted of %d; the comparison misses a path", name, w, pruned, accepted, trials)
			}
			// Unflushed trials stay off the meter, and one Flush charges
			// them once.
			before := o.Meter().Snapshot()
			want := st.Trial()
			stepwise := o.Meter().Snapshot().Sub(before)
			before = o.Meter().Snapshot()
			if got := ex.Trial(); got != want {
				t.Fatalf("%s: runner %+v, stepwise %+v", name, got, want)
			}
			if c := o.Meter().Snapshot().Sub(before); c != (simnet.Cost{}) {
				t.Errorf("%s: an unflushed trial moved the meter by %+v", name, c)
			}
			ex.Flush()
			ex.Flush()
			if c := o.Meter().Snapshot().Sub(before); c != stepwise {
				t.Errorf("%s: two Flushes charged %+v, stepwise %+v", name, c, stepwise)
			}
			if c := o.Meter().Snapshot().Sub(start); c.Calls == 0 {
				t.Errorf("%s: %d trials charged nothing", name, trials)
			}
		}
	}
}

// TestOracleTrialsStepwiseWhenShared: a shareable sampler's runner, and
// every runner while a latency model is armed, is NewRunner's: the
// shareable one runs from several goroutines, and with a model armed
// every hop advances the one clock and draws from the one stream, in
// call order, which a private counter would skip.
func TestOracleTrialsStepwiseWhenShared(t *testing.T) {
	t.Parallel()
	o, err := GenerateOracle(rand.New(rand.NewPCG(8, 8)), 256)
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := countingDraw(1)
	stepwise := reflect.TypeOf(NewRunner(o, Walk{}, draw))
	w := Walk{Lambda: 1 << 50, MaxSteps: 20}
	if r := o.Trials(w, draw, false); reflect.TypeOf(r) != stepwise {
		t.Errorf("a shareable sampler's oracle runner is a %T", r)
	}
	if r := o.Trials(w, draw, true); reflect.TypeOf(r) == stepwise {
		t.Errorf("an exclusive sampler's oracle runner is NewRunner's")
	}
	o.SimulateLatency(&sim.Clock{}, sim.Constant{RTT: time.Millisecond}, 9)
	r := o.Trials(w, draw, true)
	if reflect.TypeOf(r) != stepwise {
		t.Fatalf("with SimulateLatency armed an exclusive runner is a %T", r)
	}
	before := o.Meter().Snapshot()
	r.Trial()
	if c := o.Meter().Snapshot().Sub(before); c.Calls == 0 || o.Meter().Latency().Count != c.Calls {
		t.Errorf("a trial under a latency model charged %+v and recorded %d latencies", c, o.Meter().Latency().Count)
	}
}

// TestWalkOverUnknownPeer: a walk from a peer that is not a member
// fails at its first step with Next's ErrUnknownPeer, after no steps.
func TestWalkOverUnknownPeer(t *testing.T) {
	t.Parallel()
	o, err := GenerateOracle(rand.New(rand.NewPCG(3, 3)), 64)
	if err != nil {
		t.Fatal(err)
	}
	x := ring.Add(o.Ring().At(5), 1)
	tr := Walk{Lambda: 1 << 40, MaxSteps: 8}.Over(o.Next, Peer{Point: x, Owner: 5}, 1<<41)
	if !errors.Is(tr.Err, ErrUnknownPeer) || tr.Steps != 0 || tr.Accepted {
		t.Fatalf("walk from a non-member: %+v", tr)
	}
}

// TestWalkDelegableBound: Delegable refuses lambda 0, fewer than one
// step and horizons past two laps, and takes exactly two laps.
func TestWalkDelegableBound(t *testing.T) {
	t.Parallel()
	for _, w := range []Walk{
		{Lambda: 0, MaxSteps: 5},
		{Lambda: 1, MaxSteps: 0},
		{Lambda: 1, MaxSteps: -3},
		{Lambda: 1 << 62, MaxSteps: 8},        // 9 quarter laps
		{Lambda: math.MaxUint64, MaxSteps: 2}, // just under three laps
		{Lambda: 5, MaxSteps: math.MaxInt},    // 2.5 laps
	} {
		if err := w.Delegable(); !errors.Is(err, ErrWalkBound) {
			t.Errorf("%+v: Delegable = %v, want ErrWalkBound", w, err)
		}
	}
	for _, w := range []Walk{{Lambda: 1 << 62, MaxSteps: 7}, {Lambda: 4, MaxSteps: math.MaxInt}} {
		if err := w.Delegable(); err != nil {
			t.Errorf("a horizon of exactly two laps refused: %v", err)
		}
	}
}

// trialOracle builds the oracle FuzzOracleTrials runs on: kind 0 is a
// uniform ring of up to 2 000 points, 1 a virtual-owner ring, 2 a
// skewed ring whose points all share one bucket of the directory, 3 a
// ring of one, two or three points, 4 a ring holding 0 and 2^64-1.
func trialOracle(t *testing.T, kind byte, seed uint64) *Oracle {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	var o *Oracle
	var err error
	switch kind % 5 {
	case 0:
		o, err = GenerateOracle(rng, 1+int(seed%2000))
	case 1:
		o, err = NewVirtualOracle(rng, 1+int(seed%64), 1+int(seed%7))
	case 3:
		o, err = GenerateOracle(rng, 1+int(seed%3))
	default:
		var points []ring.Point
		if kind%5 == 2 {
			for i := 2 + int(seed%500); i > 0; i-- {
				points = append(points, ring.Point(1<<63+rng.Uint64N(1<<20)))
			}
		} else {
			points = []ring.Point{0, math.MaxUint64}
			for i := 0; i < int(seed%6); i++ {
				points = append(points, ring.Point(rng.Uint64()))
			}
		}
		var r *ring.Ring
		if r, err = ring.New(points); err == nil {
			o = NewOracle(r)
		}
	}
	if err != nil {
		t.Skip(err) // a repeated random point; no ring to run
	}
	return o
}

// horizonD0 is the d0 at which a walk from index i stands delta units
// past the horizon after k steps, and whether a walk can start there:
// at least lambda and below 2^64.
func horizonD0(r *ring.Ring, i int, w Walk, k, delta int) (uint64, bool) {
	walked := ring.S128Of(0)
	for ; k > 0; k-- {
		next := r.NextIndex(i)
		walked = walked.AddUint(ring.Distance(r.At(i), r.At(next)))
		i = next
	}
	d := w.Horizon().Sub(walked)
	switch {
	case delta < 0:
		d = d.SubUint(1)
	case delta > 0:
		d = d.AddUint(1)
	}
	if d.Cmp(ring.S128Of(w.Lambda)) < 0 {
		return 0, false
	}
	return d.Uint64()
}

// FuzzOracleTrials pins an exclusive sampler's oracle runner — starts
// drawn and resolved a window at a time, walks read by ring index,
// cost summed until Flush — to NewRunner's H and walk over Next: trial
// by trial the same outcome and, flushed, the same charge. The fuzzer
// picks the ring (uniform, virtual owners, one crowded bucket, n <= 3,
// points at 0 and 2^64-1), the walk rule (lambda around the ring's
// ideal one, 1, 2^63 or 2^64-1; MaxSteps) and a script of starts:
// uniform, next to a peer point, or before a peer at a d0 that puts
// the horizon one unit under, at or over where its walk stands after
// some steps, so the walks wrap the array's end, accept, run out and
// prune at the edge.
func FuzzOracleTrials(f *testing.F) {
	for kind := byte(0); kind < 5; kind++ {
		for _, seed := range []uint64{1, 2, 3, 977, 2025} {
			f.Add(kind, seed, byte(0), uint64(5), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
			f.Add(kind, seed, byte(1), uint64(40), []byte{2, 5, 8, 11, 14, 17, 20, 23, 26})
			f.Add(kind, seed, byte(2), uint64(9), []byte{1, 1, 1, 4, 7, 10, 13, 16})
			f.Add(kind, seed, byte(3), uint64(3), []byte{0, 2, 5, 8, 255, 128, 64})
			f.Add(kind, seed, byte(4), uint64(30), []byte{3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33})
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, seed uint64, lam byte, steps uint64, script []byte) {
		o := trialOracle(t, kind, seed)
		r, n := o.Ring(), o.Size()
		w := Walk{MaxSteps: int(steps % uint64(4*n+8))}
		ideal := ring.FracToUnits(1 / (7 * float64(n)))
		switch lam % 5 {
		case 0:
			w.Lambda = ideal
		case 1:
			w.Lambda = max(1, ideal/(1+seed%16))
		case 2:
			w.Lambda = ideal * (1 + seed%8)
		case 3:
			w.Lambda = 1 << 63
		default:
			w.Lambda = []uint64{1, math.MaxUint64}[steps%2]
		}
		w.Lambda = max(w.Lambda, 1)
		rng := rand.New(rand.NewPCG(seed, 7))
		starts := make([]ring.Point, 0, len(script))
		for _, op := range script {
			i := rng.IntN(n)
			x := ring.Point(rng.Uint64())
			switch op % 3 {
			case 1:
				x = r.At(i) + ring.Point(rng.IntN(3)) - 1
			case 2:
				if d0, ok := horizonD0(r, i, w, int(op/3)%4, int(op/12)%3-1); ok {
					x = ring.Sub(r.At(i), d0)
				}
			}
			starts = append(starts, x)
		}
		script2 := func() func() ring.Point {
			at := 0
			return func() ring.Point { at++; return starts[(at-1)%len(starts)] }
		}
		if len(starts) == 0 {
			t.Skip("no starts")
		}
		ex, st := o.Trials(w, script2(), true), NewRunner(o, w, script2())
		for i := range starts {
			before := o.Meter().Snapshot()
			want := st.Trial()
			mid := o.Meter().Snapshot()
			got := ex.Trial()
			ex.Flush()
			after := o.Meter().Snapshot()
			desc := func() string {
				return fmt.Sprintf("n=%d owners=%d %+v start %d (%v)", n, o.Owners(), w, i, starts[i])
			}
			if got != want {
				t.Fatalf("%s: runner %+v, stepwise %+v", desc(), got, want)
			}
			if c, s := after.Sub(mid), mid.Sub(before); c != s || s.Calls != o.hops+int64(want.Steps) {
				t.Fatalf("%s: runner charged %+v, stepwise %+v for %d steps", desc(), c, s, want.Steps)
			}
		}
	})
}

// BenchmarkOracleTrials times one trial on a 10⁶-point oracle, run by
// NewRunner (H, then the walk over Next) and by an exclusive sampler's
// oracle runner (eight lookups resolved at once, the walk read by ring
// index, one charge a flush). The walk rule is a sampler's at the
// paper's lambda; a flush comes every nine trials, about a sample's
// worth. An op is 4 096 trials; ns/trial is the number to read.
func BenchmarkOracleTrials(b *testing.B) {
	o, err := GenerateOracle(rand.New(rand.NewPCG(1, 1)), 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	w := Walk{Lambda: ring.FracToUnits(1 / 7e6), MaxSteps: 83}
	const perOp = 1 << 12
	for _, exclusive := range []bool{false, true} {
		name := "stepwise"
		if exclusive {
			name = "exclusive"
		}
		b.Run(name, func(b *testing.B) {
			draw, _ := countingDraw(2)
			r := o.Trials(w, draw, exclusive)
			sink := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < perOp; j++ {
					sink += r.Trial().Steps
					if j%9 == 8 {
						r.Flush()
					}
				}
			}
			r.Flush()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/trial")
			b.ReportMetric(float64(sink)/float64(b.N*perOp), "steps/trial")
		})
	}
}
