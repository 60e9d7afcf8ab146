package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// oracleCalls is what the oracle charges for an effort: ceil(log2 n)
// calls a trial (n = 16384 in these tests, so 14) and one a step.
func oracleCalls(e Stats) int64 { return 14*e.Trials + e.Steps }

// stepwise is the type of dht.NewRunner's runner, the one every DHT
// has.
var stepwise = reflect.TypeOf(dht.NewRunner(nil, dht.Walk{}, nil))

// exclusiveFork forks s for one goroutine and checks that the fork runs
// its trials on its DHT's own runner, without which the tests below
// would pass on the stepwise path.
func exclusiveFork(t *testing.T, s *Sampler, seed uint64) *Sampler {
	t.Helper()
	f, err := s.ForkExclusive(seed)
	if err != nil {
		t.Fatal(err)
	}
	fs := f.(*Sampler)
	if reflect.TypeOf(fs.run) == stepwise {
		t.Fatal("exclusive fork over the oracle runs its trials stepwise")
	}
	return fs
}

// TestExclusiveForkFlushedOnExhaustion: with one trial a call, about a
// third of the calls end in ErrTrialsExhausted; after every call,
// failed or not, the shared meter must have moved by exactly the effort
// the fork counted — the runner may hold nothing back between calls.
func TestExclusiveForkFlushedOnExhaustion(t *testing.T) {
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

// failingTrials is an oracle whose runners fail the trial whose walk
// takes the failAt-th step (counting from 1, over the runner's life),
// after its steps, and count their flushes.
type failingTrials struct {
	*dht.Oracle
	failAt  int
	flushes *int
}

func (f failingTrials) Trials(w dht.Walk, draw func() ring.Point, exclusive bool) dht.Runner {
	return &failingRunner{Runner: f.Oracle.Trials(w, draw, exclusive), left: f.failAt, flushes: f.flushes}
}

type failingRunner struct {
	dht.Runner
	left    int // steps before the failing one
	flushes *int
}

func (r *failingRunner) Trial() dht.Trial {
	t := r.Runner.Trial()
	if r.left -= t.Steps; r.left <= 0 {
		t.Peer, t.Accepted, t.Pruned, t.Err = dht.Peer{}, false, false, errInjected
		r.left = math.MaxInt
	}
	return t
}

func (r *failingRunner) Flush() {
	*r.flushes++
	r.Runner.Flush()
}

// TestExclusiveForkFlushedOnTrialError: a trial that fails in the
// middle of a walk ends Sample with its error, its steps are counted,
// and the runner is flushed as Sample returns, so every trial and step
// spent is on the shared meter.
func TestExclusiveForkFlushedOnTrialError(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 123, 16384)
	flushes := 0
	d := failingTrials{Oracle: o, failAt: 40, flushes: &flushes}
	s, err := NewWithParams(d, rand.New(rand.NewPCG(4, 4)), paramsForN(t, 16384), Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := exclusiveFork(t, s, 32)
	start := o.Meter().Snapshot()
	calls := 0
	for {
		calls++
		_, err := f.Sample()
		if err == nil {
			continue
		}
		if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "core: ") {
			t.Fatalf("err = %v, want the injected failure under core's prefix", err)
		}
		break
	}
	st := f.Stats()
	if st.Steps < int64(d.failAt) {
		t.Errorf("fork counted %d steps, want at least the %d up to the failing trial's", st.Steps, d.failAt)
	}
	if got, want := o.Meter().Snapshot().Sub(start).Calls, oracleCalls(st); got != want || flushes != calls {
		t.Errorf("after the failed call: meter moved %d calls, effort %+v is worth %d; %d flushes over %d calls", got, st, want, flushes, calls)
	}
}

// TestExclusiveForkSameAsFork: the oracle's runner changes how a trial
// runs and where its cost is summed, nothing else — an exclusive fork
// and a shareable fork of one seed draw the same peers with the same
// effort and charge the meter the same.
func TestExclusiveForkSameAsFork(t *testing.T) {
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
	if reflect.TypeOf(shared.(*Sampler).run) != stepwise {
		t.Fatal("a shareable fork holds a single-goroutine runner")
	}
	ex := exclusiveFork(t, s, 5)
	// A fork of an exclusive fork is shareable again: not its parent's
	// runner.
	again, err := ex.Fork(5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.TypeOf(again.(*Sampler).run) != stepwise {
		t.Fatal("Fork of an exclusive fork inherited its runner")
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

// forwarding is a decorator of a DHT that forwards dht.Trials, the one
// method a decorator needs to keep every fast path.
type forwarding struct{ dht.DHT }

func (f forwarding) Trials(w dht.Walk, draw func() ring.Point, exclusive bool) dht.Runner {
	return f.DHT.(dht.Trials).Trials(w, draw, exclusive)
}

// TestRunnerFollowsTheDHT: an exclusive fork over the oracle, and over
// a decorator that forwards dht.Trials, runs on the oracle's runner; a
// shareable fork, and an exclusive one over a decorator that forwards
// only dht.DHT, runs stepwise. The same-sample tests above compare the
// two.
func TestRunnerFollowsTheDHT(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 5, 4096)
	for _, tc := range []struct {
		name string
		d    dht.DHT
		fast bool
	}{{"oracle", o, true}, {"forwarding", forwarding{o}, true}, {"DHT only", struct{ dht.DHT }{o}, false}} {
		s, err := New(tc.d, o.PeerByIndex(0), rand.New(rand.NewPCG(3, 3)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.ForkExclusive(1)
		if err != nil {
			t.Fatal(err)
		}
		if fast := reflect.TypeOf(f.(*Sampler).run) != stepwise; fast != tc.fast {
			t.Errorf("%s: an exclusive fork runs on the oracle's runner: %t, want %t", tc.name, fast, tc.fast)
		}
		shared, err := s.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(shared.(*Sampler).run) != stepwise {
			t.Errorf("%s: a shareable fork holds a %T", tc.name, shared.(*Sampler).run)
		}
	}
}
