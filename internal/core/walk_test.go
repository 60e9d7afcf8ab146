package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// delegating is an oracle that runs its samplers' trials itself: every
// walk whose first peer has an owner index 1 mod 3 "runs elsewhere",
// over the oracle's Next from the request alone (the first peer, d0 and
// the walk rule), as a serving process runs it; the others run
// stepwise. It counts the trials it runs and the walks it sends.
type delegating struct {
	*dht.Oracle
	trials, sent int
}

func (d *delegating) Trials(w dht.Walk, draw func() ring.Point, _ bool) dht.Runner {
	return delegatingRunner{d, w, draw}
}

type delegatingRunner struct {
	d    *delegating
	w    dht.Walk
	draw func() ring.Point
}

func (r delegatingRunner) Trial() dht.Trial {
	r.d.trials++
	x := r.draw()
	first, err := r.d.H(x)
	d0 := ring.Distance(x, first.Point)
	if err != nil || d0 < r.w.Lambda || first.Owner%3 != 1 {
		return dht.NewRunner(r.d.Oracle, r.w, func() ring.Point { return x }).Trial()
	}
	r.d.sent++
	served := r.w.Over(r.d.Oracle.Next, first, d0)
	served.H = first
	return served
}

func (delegatingRunner) Flush() {}

func isDelegating(r dht.Runner) bool { _, ok := r.(delegatingRunner); return ok }

// TestDelegatedTrialsSameSamples: running a third of the walks
// elsewhere, and every trial through the DHT's own runner, changes no
// point, trial, step or pruned count of a stream of samples, and a
// fork asks its DHT for a runner of its own.
func TestDelegatedTrialsSameSamples(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 77, 4096)
	d := &delegating{Oracle: o}
	local, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(5, 6)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(d, o.PeerByIndex(0), rand.New(rand.NewPCG(5, 6)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !isDelegating(remote.run) {
		t.Fatalf("sampler over a DHT that runs trials holds a %T", remote.run)
	}
	for i := 0; i < 2000; i++ {
		p, tr, err := local.SampleTraced()
		q, tq, errq := remote.SampleTraced()
		if err != nil || errq != nil {
			t.Fatalf("sample %d: %v, %v", i, err, errq)
		}
		if p != q || tr != tq {
			t.Fatalf("sample %d: local %v %+v, delegated %v %+v", i, p, tr, q, tq)
		}
	}
	if d.sent == 0 || local.Stats().Pruned == 0 {
		t.Fatalf("%d walks delegated, %d pruned; the comparison misses a path", d.sent, local.Stats().Pruned)
	}
	if int64(d.trials) != remote.Stats().Trials {
		t.Errorf("the DHT ran %d trials of %d; want every one", d.trials, remote.Stats().Trials)
	}
	for _, fork := range []func(uint64) (dht.Sampler, error){remote.Fork, remote.ForkExclusive} {
		if f, _ := fork(1); !isDelegating(f.(*Sampler).run) {
			t.Errorf("a fork dropped its DHT's runner for a %T", f.(*Sampler).run)
		}
	}
}

// scriptedRunner returns one scripted trial outcome a call.
type scriptedRunner struct {
	trials  []dht.Trial
	flushes int
}

func (r *scriptedRunner) Trial() dht.Trial {
	t := r.trials[0]
	r.trials = r.trials[1:]
	return t
}

func (r *scriptedRunner) Flush() { r.flushes++ }

// TestTrialErrorEndsTheSample: a trial's error ends the sample with its
// cause intact under core's prefix, the steps the failed trial walked
// are counted with the others, and the runner is flushed.
func TestTrialErrorEndsTheSample(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 78, 1024)
	s, err := NewWithParams(o, rand.New(rand.NewPCG(1, 2)), Params{Lambda: 1 << 40, MaxSteps: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := &scriptedRunner{trials: []dht.Trial{
		{Steps: 8},
		{Steps: 3, Pruned: true},
		{Steps: 2, Err: fmt.Errorf("walk from 7: %w", dht.ErrUnknownPeer)},
	}}
	s.run = r
	_, tr, err := s.SampleTraced()
	if !errors.Is(err, dht.ErrUnknownPeer) || !strings.HasPrefix(err.Error(), "core: walk from") {
		t.Fatalf("sample = %v, want the walk's dht.ErrUnknownPeer under core's prefix", err)
	}
	if want := (Trace{Trials: 3, Steps: 13, Pruned: 1}); tr != want || r.flushes != 1 {
		t.Fatalf("trace %+v and %d flushes, want %+v and one", tr, r.flushes, want)
	}
	if st := s.Stats(); st.Samples != 0 || st.Trials != 3 || st.Steps != 13 || st.Pruned != 1 {
		t.Errorf("stats %+v after the failed sample", st)
	}
}

// TestDelegableBound: every walk New derives with the paper's constants
// is within the two laps a process walks for another, from nhat just
// above 1 up.
func TestDelegableBound(t *testing.T) {
	t.Parallel()
	for _, gamma1 := range []float64{2.0 / 7.0, 1} {
		for nhat := 1.0; nhat < 1e12; nhat *= 1.07 {
			p, err := DeriveParams(nhat, gamma1, 6)
			if err != nil {
				t.Fatal(err)
			}
			if err := (dht.Walk{Lambda: p.Lambda, MaxSteps: p.MaxSteps}).Delegable(); err != nil {
				t.Fatalf("nhat %v, gamma1 %v: %v", nhat, gamma1, err)
			}
		}
	}
}
