package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// oracleCalls is what the oracle charges for an effort: ceil(log2 n)
// calls a trial (n = 16384 in these tests, so 14) and one a step.
func oracleCalls(e Stats) int64 { return 14*e.Trials + e.Steps }

// exclusiveFork forks s for one goroutine and checks that the fork took
// a lane that warms, without which the tests below would pass on the
// shared path or without drawing ahead.
func exclusiveFork(t *testing.T, s *Sampler, seed uint64) *Sampler {
	t.Helper()
	f, err := s.ForkExclusive(seed)
	if err != nil {
		t.Fatal(err)
	}
	fs := f.(*Sampler)
	if fs.lane == nil {
		t.Fatal("exclusive fork over a lane-offering DHT holds no lane")
	}
	if fs.warmer == nil {
		t.Fatal("exclusive fork over the oracle's lane does not warm")
	}
	return fs
}

// TestExclusiveForkLaneFlushedOnExhaustion: with one trial a call, about
// a third of the calls end in ErrTrialsExhausted; after every call,
// failed or not, the shared meter must have moved by exactly the effort
// the fork counted — the lane may hold nothing back between calls.
func TestExclusiveForkLaneFlushedOnExhaustion(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 2024, 16384)
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(12, 12)), Config{MaxTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := exclusiveFork(t, s, 31)
	start := o.Meter().Snapshot()
	exhausted := 0
	for i := 0; i < 3000; i++ {
		if _, err := f.Sample(); err != nil {
			if !errors.Is(err, ErrTrialsExhausted) {
				t.Fatal(err)
			}
			exhausted++
		}
		got, want := o.Meter().Snapshot().Sub(start).Calls, oracleCalls(f.Stats())
		if got != want {
			t.Fatalf("after call %d (%d exhausted): meter moved %d calls, effort %+v is worth %d", i, exhausted, got, f.Stats(), want)
		}
	}
	if exhausted < 100 {
		t.Fatalf("only %d of 3000 one-trial calls were exhausted", exhausted)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("the fork's effort leaked into its parent: %+v", st)
	}
}

// failingLaner is an oracle whose lanes fail their failAt-th Next call
// (counting from 1, over the lane's life): prune_test.go's failingDHT
// around the oracle's lane, with the lane's Flush passed through.
type failingLaner struct {
	*dht.Oracle
	failAt int
}

func (f failingLaner) Lane() (dht.Lane, bool) {
	lane, ok := f.Oracle.Lane()
	return &failingLane{failingDHT{DHT: lane, failAt: f.failAt}, lane}, ok
}

type failingLane struct {
	failingDHT
	inner dht.Lane
}

func (f *failingLane) Flush() { f.inner.Flush() }

func (f *failingLane) Warm(xs []ring.Point) { f.inner.(dht.Warmer).Warm(xs) }

// TestExclusiveForkLaneFlushedOnDHTError: a lane call that fails in the
// middle of a walk ends Sample with the DHT's error, and the trials and
// steps spent before it are on the shared meter when Sample returns.
func TestExclusiveForkLaneFlushedOnDHTError(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 123, 16384)
	d := failingLaner{Oracle: o, failAt: 40}
	s, err := NewWithParams(d, rand.New(rand.NewPCG(4, 4)), paramsForN(t, 16384), Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := exclusiveFork(t, s, 32)
	start := o.Meter().Snapshot()
	for {
		_, err := f.Sample()
		if err == nil {
			continue
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the injected failure", err)
		}
		break
	}
	st := f.Stats()
	if st.Steps != int64(d.failAt-1) {
		t.Errorf("fork counted %d steps, want the %d before the failing call", st.Steps, d.failAt-1)
	}
	if got, want := o.Meter().Snapshot().Sub(start).Calls, oracleCalls(st); got != want {
		t.Errorf("after the failed call: meter moved %d calls, effort %+v is worth %d", got, st, want)
	}
}

// TestExclusiveForkLaneSameAsFork: the lane changes where cost is summed,
// nothing else — an exclusive fork and a shareable fork of one seed draw
// the same peers with the same effort and charge the meter the same.
func TestExclusiveForkLaneSameAsFork(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 77, 16384)
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(13, 13)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Fork(5)
	if err != nil {
		t.Fatal(err)
	}
	if shared.(*Sampler).lane != nil {
		t.Fatal("a shareable fork holds a single-goroutine lane")
	}
	ex := exclusiveFork(t, s, 5)
	// A fork of an exclusive fork is shareable again: no lane, and not
	// its parent's either.
	again, err := ex.Fork(5)
	if err != nil {
		t.Fatal(err)
	}
	if again.(*Sampler).lane != nil {
		t.Fatal("Fork of an exclusive fork inherited its lane")
	}
	const k = 2000
	start := o.Meter().Snapshot()
	want := make([]dht.Peer, k)
	for i := range want {
		if want[i], err = shared.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	sharedCost := o.Meter().Snapshot().Sub(start)
	start = o.Meter().Snapshot()
	for i := range want {
		p, err := ex.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if p != want[i] {
			t.Fatalf("sample %d: exclusive fork drew %+v, Fork %+v", i, p, want[i])
		}
	}
	if got := o.Meter().Snapshot().Sub(start); got != sharedCost {
		t.Errorf("exclusive fork charged %+v, Fork %+v", got, sharedCost)
	}
	if got, want := ex.Stats(), shared.(*Sampler).Stats(); got != want {
		t.Errorf("exclusive fork effort %+v, Fork %+v", got, want)
	}
}

// TestExclusiveForkDrawAheadSameAsFork: the exclusive fork draws its
// starts eight at a time and keeps the unused ones for the next call,
// so call by call it must give the peer, or the ErrTrialsExhausted, of
// a shareable Fork of the same seed, with the same effort and charges.
// With one trial a call every window of starts spans eight calls; the
// other case takes several trials a call over a call count that is not
// a multiple of eight.
func TestExclusiveForkDrawAheadSameAsFork(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 2024, 16384)
	for _, tc := range []struct {
		cfg   Config
		calls int
	}{{Config{MaxTrials: 1}, 3000}, {Config{}, 1003}} {
		s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(12, 12)), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := s.Fork(41)
		if err != nil {
			t.Fatal(err)
		}
		ex := exclusiveFork(t, s, 41)
		exhausted := 0
		for i := 0; i < tc.calls; i++ {
			before := o.Meter().Snapshot()
			want, wantErr := shared.Sample()
			sharedCost := o.Meter().Snapshot().Sub(before)
			before = o.Meter().Snapshot()
			got, err := ex.Sample()
			if c := o.Meter().Snapshot().Sub(before); c != sharedCost {
				t.Fatalf("%+v call %d: exclusive fork charged %+v, Fork %+v", tc.cfg, i, c, sharedCost)
			}
			if got != want || (err == nil) != (wantErr == nil) {
				t.Fatalf("%+v call %d: exclusive fork gave %+v (err %v), Fork %+v (err %v)", tc.cfg, i, got, err, want, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrTrialsExhausted) || !errors.Is(wantErr, ErrTrialsExhausted) {
					t.Fatalf("%+v call %d: errors %v and %v, want ErrTrialsExhausted", tc.cfg, i, err, wantErr)
				}
				exhausted++
			}
		}
		if got, want := ex.Stats(), shared.(*Sampler).Stats(); got != want {
			t.Errorf("%+v: exclusive fork effort %+v, Fork %+v", tc.cfg, got, want)
		}
		if tc.cfg.MaxTrials == 1 && exhausted < 100 {
			t.Errorf("only %d of %d one-trial calls were exhausted", exhausted, tc.calls)
		}
	}
}

// warmLaner is an oracle whose lanes check how a sampler warms them:
// every H must ask for the next warmed point, in order, and a Warm may
// come only once every point of the previous one was asked for.
type warmLaner struct {
	*dht.Oracle
	t *testing.T
}

func (w warmLaner) Lane() (dht.Lane, bool) {
	lane, ok := w.Oracle.Lane()
	return &warmLane{Lane: lane, t: w.t}, ok
}

type warmLane struct {
	dht.Lane
	t       *testing.T
	pending []ring.Point // warmed and not yet asked for
	warms   int
	hs      int64
}

func (l *warmLane) Warm(xs []ring.Point) {
	if len(l.pending) != 0 {
		l.t.Fatalf("Warm %d dropped %d warmed points never asked for", l.warms+1, len(l.pending))
	}
	if len(xs) != lookAhead {
		l.t.Fatalf("Warm of %d points, want %d", len(xs), lookAhead)
	}
	l.pending = append(l.pending, xs...)
	l.warms++
	l.Lane.(dht.Warmer).Warm(xs)
}

func (l *warmLane) H(x ring.Point) (dht.Peer, error) {
	if len(l.pending) == 0 || l.pending[0] != x {
		l.t.Fatalf("H %d asked for %v, the next warmed point is %v", l.hs+1, x, l.pending)
	}
	l.pending = l.pending[1:]
	l.hs++
	return l.Lane.H(x)
}

// TestExclusiveForkWarmsEachStartOnce: every trial's lookup is of a
// start the fork warmed, in the order warmed, and no warmed start is
// skipped — neither within a call nor across calls, failed or not.
func TestExclusiveForkWarmsEachStartOnce(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 9, 16384)
	d := warmLaner{Oracle: o, t: t}
	s, err := NewWithParams(d, rand.New(rand.NewPCG(2, 2)), paramsForN(t, 16384), Config{MaxTrials: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := exclusiveFork(t, s, 17)
	lane := f.lane.(*warmLane)
	for i := 0; i < 1001; i++ {
		if _, err := f.Sample(); err != nil && !errors.Is(err, ErrTrialsExhausted) {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); lane.hs != st.Trials || int64(lane.warms*lookAhead-len(lane.pending)) != st.Trials {
		t.Errorf("%d trials, %d lookups, %d warms with %d points left", st.Trials, lane.hs, lane.warms, len(lane.pending))
	}
}
