package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// referenceSample is Figure 1 as printed, kept as the reference the
// pruned sampler is tested against: every failed trial walks the full
// maxSteps bound ("repeat 6 ln n' times"). It draws one starting point
// per trial from rng, exactly as Sampler does.
func referenceSample(d dht.DHT, rng *rand.Rand, p Params, maxTrials int) (dht.Peer, Trace, error) {
	var trace Trace
	for trial := 1; trial <= maxTrials; trial++ {
		trace.Trials = trial
		start := ring.Point(rng.Uint64())
		first, err := d.H(start)
		if err != nil {
			return dht.Peer{}, trace, err
		}
		d0 := ring.Distance(start, first.Point)
		if d0 < p.Lambda {
			return first, trace, nil
		}
		t := ring.S128Of(d0).SubUint(p.Lambda)
		cur := first
		for step := 0; step < p.MaxSteps; step++ {
			next, err := d.Next(cur)
			if err != nil {
				return dht.Peer{}, trace, err
			}
			trace.Steps++
			t = t.AddUint(ring.Distance(cur.Point, next.Point)).SubUint(p.Lambda)
			if !t.IsPos() {
				return next, trace, nil
			}
			cur = next
		}
	}
	return dht.Peer{}, trace, ErrTrialsExhausted
}

// scriptedDHT is a DHT whose arcs obey no ring at all: the gap in front
// of every point is picked from a menu by a hash of the point, so a walk
// sees zero arcs (next(p) = p, which is also what a whole-circle arc is
// on the 2^64 circle), arcs one unit either side of lambda, near-whole-
// circle arcs and random ones in any order. Both H and Next are pure
// functions of their argument, so the pruned sampler and the reference
// see the same arcs however many steps each takes.
type scriptedDHT struct {
	seed   uint64
	lambda uint64
	meter  simnet.Meter
}

func (s *scriptedDHT) gap(p ring.Point, salt uint64) uint64 {
	x := uint64(p) ^ s.seed ^ salt
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	switch x % 11 {
	case 0, 1:
		return 0
	case 2:
		return 1
	case 3:
		return s.lambda - 1
	case 4:
		return s.lambda
	case 5:
		return s.lambda + 1 // wraps to 0 at lambda = 2^64-1
	case 6:
		return s.lambda / 2
	case 7:
		return math.MaxUint64
	case 8:
		return (x >> 8) % (s.lambda/3*2 + 1)
	default:
		return x >> (x % 61)
	}
}

func (s *scriptedDHT) H(x ring.Point) (dht.Peer, error) {
	return dht.Peer{Point: ring.Add(x, s.gap(x, 0x68)), Owner: -1}, nil
}

func (s *scriptedDHT) Next(p dht.Peer) (dht.Peer, error) {
	return dht.Peer{Point: ring.Add(p.Point, s.gap(p.Point, 0x6e)), Owner: -1}, nil
}

func (s *scriptedDHT) Size() int            { return 0 }
func (s *scriptedDHT) Owners() int          { return 0 }
func (s *scriptedDHT) Meter() *simnet.Meter { return &s.meter }

// requireMatchesReference draws k samples from a pruned sampler and
// from referenceSample over the same DHT, parameters and seed, and
// requires of every draw: the same peer (or the same exhaustion), the
// same trial count, no more steps than the reference, pruned trials
// only among the failed ones, and afterwards the same next RNG draw.
func requireMatchesReference(t testing.TB, d dht.DHT, p Params, maxTrials int, seed uint64, k int) {
	t.Helper()
	rngS := rand.New(rand.NewPCG(seed, 77))
	rngR := rand.New(rand.NewPCG(seed, 77))
	s, err := NewWithParams(d, rngS, p, Config{MaxTrials: maxTrials})
	if err != nil {
		t.Fatal(err)
	}
	var total Trace
	samples := int64(0)
	for i := 0; i < k; i++ {
		got, gotTrace, gotErr := s.SampleTraced()
		want, wantTrace, wantErr := referenceSample(d, rngR, p, maxTrials)
		where := func() string {
			return fmt.Sprintf("lambda=%d maxSteps=%d seed=%d draw %d", p.Lambda, p.MaxSteps, seed, i)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.Is(gotErr, wantErr)) {
			t.Fatalf("%s: err %v, reference %v", where(), gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%s: drew %+v, reference %+v", where(), got, want)
		}
		if gotTrace.Trials != wantTrace.Trials {
			t.Fatalf("%s: %d trials, reference %d", where(), gotTrace.Trials, wantTrace.Trials)
		}
		if gotTrace.Steps > wantTrace.Steps {
			t.Fatalf("%s: %d steps, reference only %d", where(), gotTrace.Steps, wantTrace.Steps)
		}
		failed := gotTrace.Trials
		if gotErr == nil {
			failed--
			samples++
		}
		if gotTrace.Pruned < 0 || gotTrace.Pruned > failed {
			t.Fatalf("%s: %d pruned of %d failed trials", where(), gotTrace.Pruned, failed)
		}
		if gotTrace.Pruned == 0 && gotTrace.Steps != wantTrace.Steps {
			t.Fatalf("%s: nothing pruned, yet %d steps against %d", where(), gotTrace.Steps, wantTrace.Steps)
		}
		total.Trials += gotTrace.Trials
		total.Steps += gotTrace.Steps
		total.Pruned += gotTrace.Pruned
	}
	if a, b := rngS.Uint64(), rngR.Uint64(); a != b {
		t.Fatalf("lambda=%d maxSteps=%d seed=%d: RNG streams diverged (%d vs %d)", p.Lambda, p.MaxSteps, seed, a, b)
	}
	want := Stats{Samples: samples, Trials: int64(total.Trials), Steps: int64(total.Steps), Pruned: int64(total.Pruned)}
	if st := s.Stats(); st != want {
		t.Fatalf("lambda=%d maxSteps=%d seed=%d: Stats %+v, traces sum to %+v", p.Lambda, p.MaxSteps, seed, st, want)
	}
}

// lambdaSweep spans far-too-small to whole-circle lambdas around the
// ideal 2^64/(7n), including the values at which the horizon
// (maxSteps+1)*lambda no longer fits 64 bits.
func lambdaSweep(n int) []uint64 {
	ideal := ring.FracToUnits(1 / (7 * float64(n)))
	return []uint64{
		1, ideal / 8, ideal, ideal + 1, 8*ideal + 3,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64,
	}
}

// TestPrunedSamplerMatchesReference is the differential property test
// of the distance horizon over real rings: estimated parameters and
// explicit lambda/maxSteps sweeps on seeded oracle rings from one peer
// to 4096.
func TestPrunedSamplerMatchesReference(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 64, 256, 1024, 4096} {
		o := newOracle(t, uint64(n)*31+7, n)
		// The parameters a deployed sampler derives for itself.
		for caller := 0; caller < min(n, 3); caller++ {
			s, err := New(o, o.PeerByIndex(caller), rand.New(rand.NewPCG(1, 1)), Config{})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			requireMatchesReference(t, o, s.Params(), 4096, uint64(n+caller), 300)
		}
		for _, lambda := range lambdaSweep(n) {
			for _, maxSteps := range []int{1, 2, 9, 200} {
				p := Params{Lambda: lambda, MaxSteps: maxSteps}
				requireMatchesReference(t, o, p, 24, lambda^uint64(maxSteps), 60)
			}
		}
	}
}

// TestPrunedSamplerMatchesReferenceOnScriptedArcs runs the same
// comparison where no ring constrains the arcs: zero, unit, lambda +- 1
// and near-whole-circle gaps in arbitrary order.
func TestPrunedSamplerMatchesReferenceOnScriptedArcs(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 24; seed++ {
		for _, lambda := range []uint64{1, 2, 1 << 20, 1 << 58, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
			for _, maxSteps := range []int{1, 3, 40} {
				d := &scriptedDHT{seed: seed * 0x9e3779b97f4a7c15, lambda: lambda}
				requireMatchesReference(t, d, Params{Lambda: lambda, MaxSteps: maxSteps}, 16, seed, 80)
			}
		}
	}
}

// FuzzPruneMatchesReference fuzzes the same property over ring seeds
// and sizes, raw lambdas, walk bounds and RNG seeds, on the oracle and
// on scripted arcs. The seed corpus runs on every plain "go test".
func FuzzPruneMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(15), uint64(1)<<55, uint8(0), uint64(9), false)
	f.Add(uint64(2), uint16(0), uint64(1)<<63, uint8(1), uint64(3), false)
	f.Add(uint64(3), uint16(4095), uint64(1)<<49, uint8(67), uint64(5), false)
	f.Add(uint64(4), uint16(2), uint64(math.MaxUint64), uint8(200), uint64(7), true)
	f.Add(uint64(5), uint16(9), uint64(1), uint8(3), uint64(11), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, lambda uint64, stepsRaw uint8, rngSeed uint64, scripted bool) {
		if lambda == 0 {
			lambda = 1
		}
		p := Params{Lambda: lambda, MaxSteps: 1 + int(stepsRaw)}
		var d dht.DHT = &scriptedDHT{seed: seed, lambda: lambda}
		if !scripted {
			n := 1 + int(nRaw)%4096
			o, err := dht.GenerateOracle(rand.New(rand.NewPCG(seed, uint64(n))), n)
			if err != nil {
				t.Fatal(err)
			}
			d = o
		}
		requireMatchesReference(t, d, p, 12, rngSeed, 40)
	})
}

// failingDHT fails the failAt-th Next call (counting from 1).
type failingDHT struct {
	dht.DHT
	failAt, nexts int
}

var errInjected = errors.New("injected next failure")

func (f *failingDHT) Next(p dht.Peer) (dht.Peer, error) {
	f.nexts++
	if f.nexts == f.failAt {
		return dht.Peer{}, errInjected
	}
	return f.DHT.Next(p)
}

// TestStatsCountEffortOfFailedCalls pins the accounting fix: a Sample
// that ends in ErrTrialsExhausted or a DHT error still spent its trials
// and steps; only Samples is success-only.
func TestStatsCountEffortOfFailedCalls(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 123, 1024)
	// One unit of lambda: every trial fails, each after one step.
	s, err := NewWithParams(o, rand.New(rand.NewPCG(3, 3)), Params{Lambda: 1, MaxSteps: 1}, Config{MaxTrials: 5})
	if err != nil {
		t.Fatal(err)
	}
	const calls = 7
	for i := 0; i < calls; i++ {
		if _, err := s.Sample(); !errors.Is(err, ErrTrialsExhausted) {
			t.Fatalf("call %d: err = %v, want ErrTrialsExhausted", i, err)
		}
	}
	if st, want := s.Stats(), (Stats{Trials: 5 * calls, Pruned: 5 * calls}); st != want {
		// d0 is far beyond the 2-unit horizon, so no trial takes a step.
		t.Errorf("after exhausted calls: Stats %+v, want %+v", st, want)
	}

	// A DHT error in the middle of a walk: the trial and the steps
	// before the failing call are counted.
	p := paramsForN(t, 1024)
	f := &failingDHT{DHT: o, failAt: 40}
	s, err = NewWithParams(f, rand.New(rand.NewPCG(4, 4)), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ok int64
	for {
		_, err := s.Sample()
		if err == nil {
			ok++
			continue
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the injected failure", err)
		}
		break
	}
	st := s.Stats()
	if st.Samples != ok || st.Steps != int64(f.failAt-1) || st.Trials <= ok {
		t.Errorf("after a failed next: Stats %+v with %d good samples and %d completed steps", st, ok, f.failAt-1)
	}
}

// TestFailedTrialStepBudget pins what the horizon buys on a realistic
// ring: a failed trial walks about the number of peers within
// (MaxSteps+1)*lambda of its start — (MaxSteps+1)*n/(7*nhat) — not
// MaxSteps.
func TestFailedTrialStepBudget(t *testing.T) {
	t.Parallel()
	const n = 16384
	o := newOracle(t, 2024, n)
	// One trial per call, so a failed call's trace is one failed trial.
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(12, 12)), Config{MaxTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	var failed, steps, pruned int
	for i := 0; i < 20000; i++ {
		_, trace, err := s.SampleTraced()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTrialsExhausted) {
			t.Fatal(err)
		}
		failed++
		steps += trace.Steps
		pruned += trace.Pruned
	}
	p := s.Params()
	budget := float64(p.MaxSteps+1)*n/(7*s.Estimate().NHat) + 2
	mean := float64(steps) / float64(failed)
	t.Logf("nhat=%.0f maxSteps=%d: %d failed trials, %.2f steps each (budget %.2f), %d pruned",
		s.Estimate().NHat, p.MaxSteps, failed, mean, budget, pruned)
	if failed < 1000 {
		t.Fatalf("only %d failed trials in 20000", failed)
	}
	if mean > budget {
		t.Errorf("mean steps per failed trial %.2f exceeds (maxSteps+1)*n/(7*nhat)+2 = %.2f", mean, budget)
	}
	if mean >= float64(p.MaxSteps)/2 {
		t.Errorf("mean steps per failed trial %.2f is not well below maxSteps = %d", mean, p.MaxSteps)
	}
}
