package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// delegating is an oracle that offers a RemoteWalk and a RemoteLookup:
// every walk whose first peer has an owner index 1 mod 3 "runs
// elsewhere", on a sampler of its own built from the request alone, as
// a serving process does; one whose index is 2 mod 3 runs there too,
// sent with the lookup that found its first peer, as a route tail runs
// it; and every lookup is counted.
type delegating struct {
	*dht.Oracle
	sent, fused, looked int
}

func (d *delegating) Delegate() Delegates {
	return Delegates{Walk: func(first dht.Peer, d0 uint64, p Params) (WalkResult, bool, error) {
		if first.Owner%3 != 1 {
			return WalkResult{}, false, nil
		}
		d.sent++
		return d.served(first, d0, p)
	}, H: func(x ring.Point, p Params) (dht.Peer, WalkResult, bool, error) {
		d.looked++
		first, err := d.Oracle.H(x)
		d0 := ring.Distance(x, first.Point)
		if err != nil || p == (Params{}) || first.Owner%3 != 2 || d0 < p.Lambda {
			return first, WalkResult{}, false, err
		}
		d.fused++
		w, _, err := d.served(first, d0, p)
		return first, w, true, err
	}}
}

// served is the walk a serving process runs from first.
func (d *delegating) served(first dht.Peer, d0 uint64, p Params) (WalkResult, bool, error) {
	if err := p.Delegable(); err != nil {
		return WalkResult{}, true, err
	}
	s, err := NewWithParams(d.Oracle, nil, Params{Lambda: p.Lambda, MaxSteps: p.MaxSteps}, Config{})
	if err != nil {
		return WalkResult{}, true, err
	}
	var tr Trace
	peer, ok, err := s.Walk(d.Oracle, first, d0, &tr)
	return WalkResult{Peer: peer, Accepted: ok, Steps: tr.Steps, Pruned: tr.Pruned > 0}, true, err
}

// TestRemoteWalkSameSamples: delegating two walks in three, half of
// them with the lookup, and every lookup, changes no point, trial, step
// or pruned count of a stream of samples.
func TestRemoteWalkSameSamples(t *testing.T) {
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
	if remote.remote == nil || remote.lookup == nil {
		t.Fatal("sampler over a delegating DHT resolved no RemoteWalk or RemoteLookup")
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
	if d.sent == 0 || d.fused == 0 || local.Stats().Pruned == 0 {
		t.Fatalf("%d walks delegated, %d with their lookup, %d pruned; the comparison misses a path", d.sent, d.fused, local.Stats().Pruned)
	}
	if int64(d.looked) != remote.Stats().Trials {
		t.Errorf("%d lookups delegated over %d trials; want one a trial", d.looked, remote.Stats().Trials)
	}
	if f, _ := remote.Fork(1); f.(*Sampler).remote == nil || f.(*Sampler).lookup == nil {
		t.Error("a fork dropped its parent's RemoteWalk or RemoteLookup")
	}
}

// TestRemoteWalkErrorsEndTheSample: a delegated walk's error ends the
// sample with its class intact, sent alone or with its lookup, and a
// sampler that may not send its walks asks its lookup for none.
func TestRemoteWalkErrorsEndTheSample(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 78, 1024)
	s, err := NewWithParams(o, rand.New(rand.NewPCG(1, 2)), Params{Lambda: 1 << 40, MaxSteps: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.remote = func(dht.Peer, uint64, Params) (WalkResult, bool, error) {
		return WalkResult{}, true, dht.ErrUnknownPeer
	}
	if _, err := s.Sample(); !errors.Is(err, dht.ErrUnknownPeer) || !strings.Contains(err.Error(), "walk from") {
		t.Fatalf("sample = %v, want a walk's dht.ErrUnknownPeer", err)
	}
	s.lookup = func(x ring.Point, p Params) (dht.Peer, WalkResult, bool, error) {
		if p != s.params {
			t.Fatalf("lookup asked to walk with %+v, want %+v", p, s.params)
		}
		first, _ := o.H(x)
		return first, WalkResult{}, true, dht.ErrUnknownPeer
	}
	if _, err := s.Sample(); !errors.Is(err, dht.ErrUnknownPeer) || !strings.Contains(err.Error(), "walk from") {
		t.Fatalf("sample = %v, want a walk's dht.ErrUnknownPeer", err)
	}
	if s, err = New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(1, 2)), Config{}); err != nil {
		t.Fatal(err)
	}
	s.lookup = func(x ring.Point, p Params) (dht.Peer, WalkResult, bool, error) {
		if p != (Params{}) {
			t.Fatalf("a sampler that walks from the caller asked its lookup to walk with %+v", p)
		}
		first, err := o.H(x)
		return first, WalkResult{}, false, err
	}
	if _, err := s.Sample(); err != nil {
		t.Fatal(err)
	}
}

// TestDelegableBound: every walk New derives with the paper's constants
// is within two laps, from nhat just above 1 up; past the bound a
// sampler walks from the caller, and a serving process refuses it.
func TestDelegableBound(t *testing.T) {
	t.Parallel()
	for _, gamma1 := range []float64{2.0 / 7.0, 1} {
		for nhat := 1.0; nhat < 1e12; nhat *= 1.07 {
			p, err := DeriveParams(nhat, gamma1, 6)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Delegable(); err != nil {
				t.Fatalf("nhat %v, gamma1 %v: %v", nhat, gamma1, err)
			}
		}
	}
	for _, p := range []Params{
		{Lambda: 0, MaxSteps: 5},
		{Lambda: 1, MaxSteps: 0},
		{Lambda: 1, MaxSteps: -3},
		{Lambda: 1 << 62, MaxSteps: 8},        // 9 quarter laps
		{Lambda: math.MaxUint64, MaxSteps: 2}, // just under three laps
		{Lambda: 5, MaxSteps: math.MaxInt},    // 2.5 laps
	} {
		if err := p.Delegable(); !errors.Is(err, ErrWalkBound) {
			t.Errorf("%+v: Delegable = %v, want ErrWalkBound", p, err)
		}
	}
	for _, p := range []Params{{Lambda: 1 << 62, MaxSteps: 7}, {Lambda: 4, MaxSteps: math.MaxInt}} {
		if err := p.Delegable(); err != nil {
			t.Errorf("a horizon of exactly two laps refused: %v", err)
		}
	}
	d := &delegating{Oracle: newOracle(t, 79, 64)}
	s, err := NewWithParams(d, rand.New(rand.NewPCG(1, 2)), Params{Lambda: 1 << 62, MaxSteps: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.remote != nil {
		t.Error("a sampler past two laps took the RemoteWalk")
	}
}
