package churn

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

func newNet(t *testing.T, seed uint64, n int) (*chord.Network, *ring.Ring) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+77))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	return net, r
}

func TestChurnPreservesRingConsistency(t *testing.T) {
	t.Parallel()
	net, _ := newNet(t, 1, 64)
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(2, 2)), Config{
		Events:         60,
		RoundsPerEvent: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := d.Run(func(ev Event) error {
		events++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != 60 {
		t.Errorf("hook ran %d times, want 60", events)
	}
	// Extra settling rounds, then the ring must be perfect again.
	net.Maintain(10, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring inconsistent after churn: %v", err)
	}
}

func TestChurnRespectsMinSizeAndProtection(t *testing.T) {
	t.Parallel()
	net, r := newNet(t, 3, 8)
	protected := map[ring.Point]bool{r.At(0): true}
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(4, 4)), Config{
		Events:       100,
		JoinFraction: 0.05, // heavy crash bias
		MinSize:      4,
		Protected:    protected,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(func(ev Event) error {
		if !ev.Join && protected[ev.Node] {
			t.Errorf("protected node %v crashed", ev.Node)
		}
		if got := net.NumAlive(); got < 4 {
			t.Errorf("size %d fell below floor", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Node(r.At(0)); err != nil {
		t.Error("protected node missing after churn")
	}
}

func TestSamplingDuringChurn(t *testing.T) {
	t.Parallel()
	net, r := newNet(t, 5, 64)
	caller := r.At(0)
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(6, 6)), Config{
		Events:         30,
		RoundsPerEvent: 4,
		Protected:      map[ring.Point]bool{caller: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	adht, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	srng := rand.New(rand.NewPCG(7, 7))
	sampled := 0
	if err := d.Run(func(ev Event) error {
		s, err := core.New(adht, adht.Self(), srng, core.Config{})
		if err != nil {
			return nil // transient estimate failure under churn is acceptable
		}
		if _, err := s.Sample(); err == nil {
			sampled++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The vast majority of samples should succeed despite churn.
	if sampled < 25 {
		t.Errorf("only %d/30 samples succeeded during churn", sampled)
	}
}

func TestNewDriverValidation(t *testing.T) {
	t.Parallel()
	net := chord.NewNetwork(chord.Config{}, simnet.NewDirect())
	if _, err := NewDriver(Chord(net), rand.New(rand.NewPCG(1, 1)), Config{Events: 5}); err == nil {
		t.Error("empty network should fail")
	}
	full, _ := newNet(t, 9, 4)
	if _, err := NewDriver(Chord(full), rand.New(rand.NewPCG(1, 1)), Config{Events: -1}); err == nil {
		t.Error("negative events should fail")
	}
}

func TestChurnHookErrorAborts(t *testing.T) {
	t.Parallel()
	net, _ := newNet(t, 11, 16)
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(8, 8)), Config{Events: 10})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = d.Run(func(Event) error {
		calls++
		if calls == 3 {
			return chord.ErrEmptyNetwork // arbitrary sentinel
		}
		return nil
	})
	if err == nil {
		t.Error("hook error should abort Run")
	}
	if calls != 3 {
		t.Errorf("hook ran %d times, want 3", calls)
	}
}

func newKadNet(t *testing.T, seed uint64, n int) (*kademlia.Network, *ring.Ring) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+77))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	return net, r
}

// TestChurnOnKademlia runs the same schedule shape as the Chord test
// over the Kademlia overlay: the driver is generic, and the overlay must
// converge back to a perfect ring after settling.
func TestChurnOnKademlia(t *testing.T) {
	t.Parallel()
	net, _ := newKadNet(t, 21, 32)
	d, err := NewDriver(Kademlia(net), rand.New(rand.NewPCG(22, 22)), Config{
		Events:         30,
		RoundsPerEvent: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := d.Run(func(ev Event) error {
		events++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != 30 {
		t.Errorf("hook ran %d times, want 30", events)
	}
	net.Maintain(6, 0)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("kademlia ring inconsistent after churn: %v", err)
	}
}

// TestAsyncChurnConcurrentWithSampling drives the full asynchronous
// stack: a Chord ring on the virtual-clock transport, churn and
// maintenance as timed kernel events, and a sampler process drawing
// peers while the topology changes under it.
func TestAsyncChurnConcurrentWithSampling(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(31, 31))
	r, err := ring.Generate(rng, 48)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(31)
	tr := sim.NewTransport(sim.WithKernel(k), sim.WithModel(sim.Constant{RTT: time.Millisecond}))
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		t.Fatal(err)
	}
	caller := r.At(0)
	adht, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(32, 32)), Config{
		Events:    25,
		Protected: map[ring.Point]bool{caller: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := d.Schedule(k, AsyncConfig{
		MeanInterval:        10 * time.Millisecond,
		MaintenanceInterval: 5 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srng := rand.New(rand.NewPCG(33, 33))
	sampled, sampleErrs := 0, 0
	k.Go("sampler", func() {
		for !run.Done() {
			s, err := core.New(adht, adht.Self(), srng, core.Config{})
			if err != nil {
				sampleErrs++
				if k.Sleep(time.Millisecond) != nil {
					return
				}
				continue
			}
			if _, err := s.Sample(); err != nil {
				sampleErrs++
			} else {
				sampled++
			}
		}
	})
	k.Run()
	if got := len(run.Events) + run.StepErrors; got != 25 {
		t.Errorf("events executed+failed = %d, want 25", got)
	}
	if sampled == 0 {
		t.Error("no sample completed during asynchronous churn")
	}
	if k.Now() == 0 {
		t.Error("virtual clock never advanced")
	}
	// The overlay settles once events stop.
	net.Maintain(10, 16)
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("ring inconsistent after async churn: %v", err)
	}
	t.Logf("async churn: %d samples ok, %d errors, %d step errors, virtual time %v",
		sampled, sampleErrs, run.StepErrors, k.Now())
}

func TestAsyncScheduleValidation(t *testing.T) {
	t.Parallel()
	net, _ := newNet(t, 41, 8)
	d, err := NewDriver(Chord(net), rand.New(rand.NewPCG(42, 42)), Config{Events: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Schedule(sim.NewKernel(1), AsyncConfig{}, nil); err == nil {
		t.Error("zero mean interval should fail")
	}
}

// BenchmarkAsyncChurn is the churn stress benchmark: a full
// asynchronous schedule — exponential-gap joins/crashes plus periodic
// parallel maintenance sweeps — executed on the event kernel over a
// live Chord ring. With -benchmem it gates the driver's pooled
// event/closure state: per-event allocations here are protocol-side
// (join RPCs), not scheduler-side.
func BenchmarkAsyncChurn(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	r, err := ring.Generate(rng, 128)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	tr := sim.NewTransport(
		sim.WithKernel(k),
		sim.WithModel(sim.Constant{RTT: time.Millisecond}),
		sim.WithStreamSeed(3),
	)
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		b.Fatal(err)
	}
	driver, err := NewDriver(Chord(net), rand.New(rand.NewPCG(4, 5)), Config{Events: b.N})
	if err != nil {
		b.Fatal(err)
	}
	_, err = driver.Schedule(k, AsyncConfig{
		MeanInterval:        2 * time.Millisecond,
		MaintenanceInterval: 20 * time.Millisecond,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
