package sim_test

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// simOutcome fingerprints one full simulation: the executed event trace,
// the virtual clock, the latency histogram, and every sampled owner.
type simOutcome struct {
	traceHash uint64
	events    uint64
	clock     time.Duration
	latency   obs.HistSnapshot
	owners    []int
	churned   int
}

// runScenario executes a fixed churn-plus-sampling scenario on the
// event kernel and returns its fingerprint. Everything is derived from
// seed; nothing reads wall-clock time or unseeded randomness.
func runScenario(t *testing.T, seed uint64) simOutcome {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	r, err := ring.Generate(rng, 32)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(seed)
	tr := sim.NewTransport(
		sim.WithKernel(k),
		sim.WithStreamSeed(seed+2),
		sim.WithModel(sim.Straggler{
			Base:     sim.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
			Fraction: 0.1, Factor: 4, Seed: seed,
		}),
	)
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		t.Fatal(err)
	}
	caller := r.At(0)
	d, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := churn.NewDriver(churn.Chord(net), rand.New(rand.NewPCG(seed+3, seed+4)), churn.Config{
		Events:    12,
		Protected: map[ring.Point]bool{caller: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := driver.Schedule(k, churn.AsyncConfig{
		MeanInterval:        8 * time.Millisecond,
		MaintenanceInterval: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	k.SetObserver(func(at time.Duration, seq uint64, proc string) {
		fmt.Fprintf(h, "%d/%d/%s;", at, seq, proc)
	})
	var owners []int
	srng := rand.New(rand.NewPCG(seed+5, seed+6))
	k.Go("sampler", func() {
		for !run.Done() {
			s, err := core.New(d, d.Self(), srng, core.Config{})
			if err != nil {
				owners = append(owners, -2)
				if k.Sleep(time.Millisecond) != nil {
					return
				}
				continue
			}
			p, err := s.Sample()
			if err != nil {
				owners = append(owners, -1)
				continue
			}
			owners = append(owners, int(p.Point>>48)) // point prefix: owner indices shift under churn
		}
	})
	k.Run()
	return simOutcome{
		traceHash: h.Sum64(),
		events:    k.Processed(),
		clock:     k.Now(),
		latency:   tr.Meter().Latency(),
		owners:    owners,
		churned:   len(run.Events) + run.StepErrors,
	}
}

// TestDeterminismAcrossGOMAXPROCS is the kernel's reproducibility
// guarantee: the same seed and schedule produce bit-identical event
// order, latency histograms and sampled peers whether the Go runtime
// has one core or all of them — the kernel never runs two processes at
// once, so scheduler interleaving cannot leak into results.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	const seed = 1234
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procs := []int{1, 4, 8}
	if max := runtime.NumCPU(); max > 8 {
		procs = append(procs, max)
	}
	runtime.GOMAXPROCS(procs[0])
	one := runScenario(t, seed)
	if one.events == 0 || len(one.owners) == 0 || one.churned == 0 {
		t.Errorf("degenerate scenario: %d events, %d samples, %d churn events",
			one.events, len(one.owners), one.churned)
	}
	for _, p := range procs[1:] {
		runtime.GOMAXPROCS(p)
		many := runScenario(t, seed)
		if one.traceHash != many.traceHash || one.events != many.events {
			t.Errorf("GOMAXPROCS=%d: event trace differs: %x/%d events vs %x/%d events",
				p, one.traceHash, one.events, many.traceHash, many.events)
		}
		if one.clock != many.clock {
			t.Errorf("GOMAXPROCS=%d: final virtual clock differs: %v vs %v", p, one.clock, many.clock)
		}
		if one.latency != many.latency {
			t.Errorf("GOMAXPROCS=%d: latency histograms differ: %+v vs %+v",
				p, one.latency, many.latency)
		}
		if len(one.owners) != len(many.owners) {
			t.Fatalf("GOMAXPROCS=%d: sample counts differ: %d vs %d", p, len(one.owners), len(many.owners))
		}
		for i := range one.owners {
			if one.owners[i] != many.owners[i] {
				t.Fatalf("GOMAXPROCS=%d: sampled peer %d differs: %d vs %d", p, i, one.owners[i], many.owners[i])
			}
		}
		if one.churned != many.churned {
			t.Errorf("GOMAXPROCS=%d: churn event counts differ: %d vs %d", p, one.churned, many.churned)
		}
	}
}

// TestDeterminismPinnedTrace holds runScenario(1234) to constants
// recorded at the commit before the kernel's coroutine handoff was made
// a per-toolchain primitive. The two handoff files (iter.Pull from Go
// 1.23, the channel pair before) can never share a binary, so a
// committed fingerprint is the only thing that holds CI's two toolchain
// legs — and every later kernel change — to one event trace.
func TestDeterminismPinnedTrace(t *testing.T) {
	got := runScenario(t, 1234)
	want := simOutcome{
		traceHash: 0x989e5efe59ad652c,
		events:    1930,
		clock:     408857 * time.Microsecond,
		latency: obs.HistSnapshot{Count: 1589, SumNanos: 4348860274,
			Buckets: [64]int64{20: 39, 21: 737, 22: 627, 23: 105, 24: 79, 26: 2}},
		owners:  []int{-2, -2, -2, 24542, 37309}, // every sample the scenario takes
		churned: 12,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("runScenario(1234) = %+v\npinned %+v", got, want)
	}
}

// TestDeterminismSeedSensitivity is the complementary check: a
// different seed must actually change the simulation (otherwise the
// determinism test proves nothing).
func TestDeterminismSeedSensitivity(t *testing.T) {
	a := runScenario(t, 1234)
	b := runScenario(t, 4321)
	if a.traceHash == b.traceHash {
		t.Error("different seeds produced identical event traces")
	}
}
