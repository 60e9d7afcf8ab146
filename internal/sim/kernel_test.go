package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.At(30*time.Millisecond, "c", func() { order = append(order, "c") })
	k.At(10*time.Millisecond, "a", func() { order = append(order, "a") })
	k.At(20*time.Millisecond, "b", func() { order = append(order, "b") })
	k.Run()
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Errorf("order = %s, want [a b c]", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("final clock = %v, want 30ms", k.Now())
	}
}

func TestKernelBreaksTiesInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.At(5*time.Millisecond, "p", func() { order = append(order, i) })
	}
	k.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (same-time events must fire in schedule order)", i, got, i)
		}
	}
}

func TestKernelSleepInterleavesProcesses(t *testing.T) {
	k := NewKernel(1)
	type step struct {
		who string
		at  time.Duration
	}
	var trace []step
	k.Go("fast", func() {
		for i := 0; i < 3; i++ {
			if err := k.Sleep(10 * time.Millisecond); err != nil {
				t.Error(err)
				return
			}
			trace = append(trace, step{"fast", k.Now()})
		}
	})
	k.Go("slow", func() {
		if err := k.Sleep(25 * time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		trace = append(trace, step{"slow", k.Now()})
	})
	k.Run()
	want := []step{
		{"fast", 10 * time.Millisecond},
		{"fast", 20 * time.Millisecond},
		{"slow", 25 * time.Millisecond},
		{"fast", 30 * time.Millisecond},
	}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestKernelNestedSpawn(t *testing.T) {
	k := NewKernel(1)
	var ran bool
	k.Go("parent", func() {
		k.At(k.Now()+5*time.Millisecond, "child", func() { ran = true })
		if err := k.Sleep(time.Millisecond); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if !ran {
		t.Error("child process spawned from a running process never ran")
	}
}

func TestKernelStopUnwindsSleepers(t *testing.T) {
	k := NewKernel(1)
	var stoppedErr error
	sleeps := 0
	k.Go("looper", func() {
		for {
			if err := k.Sleep(time.Millisecond); err != nil {
				stoppedErr = err
				return
			}
			sleeps++
		}
	})
	k.At(10*time.Millisecond, "watchdog", func() { k.Stop() })
	k.Run()
	if !errors.Is(stoppedErr, ErrStopped) {
		t.Errorf("sleeper saw %v, want ErrStopped", stoppedErr)
	}
	if sleeps == 0 {
		t.Error("looper never ran before the watchdog fired")
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestKernelFreeModeSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	if err := k.Sleep(7 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 7*time.Millisecond {
		t.Errorf("clock = %v, want 7ms", k.Now())
	}
}

func TestKernelObserverSeesEveryEvent(t *testing.T) {
	k := NewKernel(1)
	var seen []uint64
	k.SetObserver(func(_ time.Duration, seq uint64, _ string) { seen = append(seen, seq) })
	k.Go("p", func() {
		for i := 0; i < 3; i++ {
			if err := k.Sleep(time.Millisecond); err != nil {
				return
			}
		}
	})
	k.Run()
	if uint64(len(seen)) != k.Processed() {
		t.Errorf("observer saw %d events, Processed() = %d", len(seen), k.Processed())
	}
	if len(seen) != 4 { // spawn + 3 sleeps
		t.Errorf("events = %d, want 4", len(seen))
	}
}

func TestPostRunsCallbacksInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.PostAt(30*time.Millisecond, "c", func() { order = append(order, "c") })
	k.At(10*time.Millisecond, "a", func() { order = append(order, "a") })
	k.PostAt(20*time.Millisecond, "b", func() { order = append(order, "b") })
	k.Run()
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Errorf("order = %s, want [a b c] (callbacks and processes share one queue)", got)
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("final clock = %v, want 30ms", k.Now())
	}
}

func TestPostChainsAndSpawns(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	var fromCallback bool
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			k.Post(time.Millisecond, "tick", tick)
		} else {
			// Callbacks may spawn blocking processes.
			k.Go("proc", func() {
				if err := k.Sleep(time.Millisecond); err != nil {
					t.Error(err)
				}
				fromCallback = true
			})
		}
	}
	k.Post(0, "tick", tick)
	k.Run()
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if !fromCallback {
		t.Error("process spawned from a callback never ran")
	}
	if k.Now() != 5*time.Millisecond {
		t.Errorf("clock = %v, want 5ms", k.Now())
	}
}

func TestSleepFromCallbackPanics(t *testing.T) {
	k := NewKernel(1)
	var recovered any
	k.Post(0, "bad", func() {
		defer func() { recovered = recover() }()
		_ = k.Sleep(time.Millisecond)
	})
	k.Run()
	if recovered == nil {
		t.Fatal("Sleep inside a Post callback must panic (callbacks cannot block)")
	}
}

func TestGoArgPassesArgument(t *testing.T) {
	k := NewKernel(1)
	var got []uint64
	fn := func(v uint64) { got = append(got, v) }
	for i := uint64(0); i < 4; i++ {
		k.GoArg("p", fn, i*7)
	}
	k.Run()
	if fmt.Sprint(got) != "[0 7 14 21]" {
		t.Errorf("args = %v, want [0 7 14 21]", got)
	}
}

// TestHandoffsCountOnlySwitches: Stats().Handoffs splits the event
// count by cost. Two interleaving sleepers switch coroutine on every
// event; a lone sleeper switches once (its spawn) and sleeps inline; a
// callback chain never switches.
func TestHandoffsCountOnlySwitches(t *testing.T) {
	sleeper := func(k *Kernel) func() {
		return func() {
			for i := 0; i < 3; i++ {
				if k.Sleep(time.Millisecond) != nil {
					return
				}
			}
		}
	}
	for _, c := range []struct {
		name             string
		schedule         func(k *Kernel)
		events, handoffs uint64
	}{
		{"two sleepers", func(k *Kernel) { k.Go("a", sleeper(k)); k.Go("b", sleeper(k)) }, 8, 8},
		{"lone sleeper", func(k *Kernel) { k.Go("a", sleeper(k)) }, 4, 1},
		{"callbacks", func(k *Kernel) { k.Post(0, "t", func() { k.Post(time.Millisecond, "t", func() {}) }) }, 2, 0},
	} {
		k := NewKernel(1)
		reg := obs.NewRegistry()
		k.RegisterMetrics(reg)
		c.schedule(k)
		k.Run()
		if st := k.Stats(); st.EventsDispatched != c.events || st.Handoffs != c.handoffs {
			t.Errorf("%s: %d events, %d handoffs, want %d and %d", c.name, st.EventsDispatched, st.Handoffs, c.events, c.handoffs)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sim_kernel_handoffs_total %d\n", c.handoffs); !strings.Contains(b.String(), want) {
			t.Errorf("%s: scrape lacks %q:\n%s", c.name, want, b.String())
		}
	}
}

// TestCrossPathDeterminism is the callback fast path's compatibility
// guarantee: the same logical schedule — n timed work items at the same
// virtual times — produces a bit-identical event trace and identical
// side effects whether it is driven by a coroutine process sleeping
// between items or by a self-reposting callback chain. Both consume
// one (time, seq, name) event per item, so simulations may migrate
// non-blocking processes to callbacks without changing results.
func TestCrossPathDeterminism(t *testing.T) {
	const items = 64
	type record struct {
		at   time.Duration
		seq  uint64
		name string
	}
	run := func(callback bool) (trace []record, draws []uint64, clock time.Duration) {
		k := NewKernel(9)
		k.SetObserver(func(at time.Duration, seq uint64, name string) {
			trace = append(trace, record{at, seq, name})
		})
		rng := rand.New(rand.NewPCG(5, 6))
		work := func() { draws = append(draws, k.Rand().Uint64()) }
		gap := func() time.Duration { return time.Duration(rng.IntN(5)+1) * time.Millisecond }
		if callback {
			i := 0
			var tick func()
			tick = func() {
				work()
				i++
				if i < items {
					k.Post(gap(), "worker", tick)
				}
			}
			k.PostAt(0, "worker", tick)
		} else {
			k.At(0, "worker", func() {
				for i := 0; i < items; i++ {
					if i > 0 {
						if err := k.Sleep(gap()); err != nil {
							t.Error(err)
							return
						}
					}
					work()
				}
			})
		}
		k.Run()
		return trace, draws, k.Now()
	}
	pt, pd, pc := run(false)
	ct, cd, cc := run(true)
	if fmt.Sprint(pt) != fmt.Sprint(ct) {
		t.Errorf("event traces differ:\n proc     %v\n callback %v", pt, ct)
	}
	if fmt.Sprint(pd) != fmt.Sprint(cd) {
		t.Errorf("kernel RNG draw sequences differ")
	}
	if pc != cc {
		t.Errorf("final clocks differ: %v vs %v", pc, cc)
	}
	if len(pt) != items {
		t.Errorf("trace has %d events, want %d (one per work item on either path)", len(pt), items)
	}
}

// TestKernelAllocBudget gates the event loop's allocation behaviour:
// a steady-state callback chain (Post + dispatch) and a pooled-process
// sleep loop both run without any per-event heap allocation.
func TestKernelAllocBudget(t *testing.T) {
	t.Run("post-dispatch", func(t *testing.T) {
		k := NewKernel(1)
		const events = 2000
		i := 0
		var tick func()
		tick = func() {
			i++
			if i < events {
				k.Post(time.Microsecond, "tick", tick)
			}
		}
		avg := testing.AllocsPerRun(1, func() {
			i = 0
			k.Post(0, "tick", tick)
			k.Run()
		})
		// One queue-slice grow amortizes to ~0 per event.
		if perEvent := avg / events; perEvent > 0.01 {
			t.Errorf("callback events allocate %.4f allocs/event, want 0 amortized", perEvent)
		}
	})
	t.Run("proc-sleep", func(t *testing.T) {
		k := NewKernel(1)
		const events = 2000
		avg := testing.AllocsPerRun(1, func() {
			k.Go("sleeper", func() {
				for i := 0; i < events; i++ {
					if k.Sleep(time.Microsecond) != nil {
						return
					}
				}
			})
			k.Run()
		})
		// The spawn itself may allocate (closure + proc on first use);
		// the per-sleep fast path must not.
		if perEvent := avg / events; perEvent > 0.01 {
			t.Errorf("sleep events allocate %.4f allocs/event, want 0 amortized", perEvent)
		}
	})
}

// TestPooledProcsAreReused checks the spawn pool: a chain in which each
// process spawns its successor keeps two coroutines alive (the spawner
// is still running when the successor is taken), so the kernel starts
// exactly two and serves every later spawn from the pool, allocation
// free. Creating the two coroutines does allocate — 6 each as a channel
// pair, 13 each under iter.Pull — which is why the budget is taken over
// enough spawns to price the spawn, not the creation.
func TestPooledProcsAreReused(t *testing.T) {
	k := NewKernel(1)
	const spawns = 2000
	i := 0
	var next func(uint64)
	next = func(u uint64) {
		i++
		if i < spawns {
			k.GoArg("chain", next, u+1)
		}
	}
	var started, reused uint64 // per Run: it releases the pool when it drains
	avg := testing.AllocsPerRun(1, func() {
		before := k.Stats()
		i = 0
		k.GoArg("chain", next, 0)
		k.Run()
		after := k.Stats()
		started, reused = after.ProcsStarted-before.ProcsStarted, after.ProcsReused-before.ProcsReused
	})
	if started != 2 || reused != spawns-2 {
		t.Errorf("chain of %d spawns started %d coroutines and reused %d, want 2 and %d",
			spawns, started, reused, spawns-2)
	}
	if perSpawn := avg / spawns; perSpawn > 0.05 {
		t.Errorf("sequential spawns allocate %.4f allocs/spawn, want ~0 (pooled procs)", perSpawn)
	}
}

// TestStopDrainsCallbackChains is the regression test for the drain
// livelock: a self-reposting callback chain must not keep Run alive
// after Stop — with the clock frozen, each repost would land at the
// same virtual time, permanently ahead of every sleeper's wake event.
// Stop discards pending callbacks, so Run returns and the sleeper
// unwinds through ErrStopped.
func TestStopDrainsCallbackChains(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		k.Post(time.Millisecond, "tick", tick)
	}
	k.Post(0, "tick", tick)
	var sleeperErr error
	k.Go("sleeper", func() {
		sleeperErr = k.Sleep(time.Hour) // wakes only via the drain
	})
	k.At(5*time.Millisecond, "watchdog", func() { k.Stop() })
	done := make(chan struct{})
	go func() { k.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop with a reposting callback chain queued")
	}
	if !errors.Is(sleeperErr, ErrStopped) {
		t.Errorf("sleeper saw %v, want ErrStopped", sleeperErr)
	}
	if ticks == 0 {
		t.Error("callback chain never ran before Stop")
	}
}

// TestRunReleasesPooledCoroutines: a coroutine parked in the pool is a
// goroutine, and Run must end every one it started when it drains — by
// running dry or through Stop — or a long-lived caller leaks one per
// concurrent process per Run. Not parallel: it counts goroutines.
func TestRunReleasesPooledCoroutines(t *testing.T) {
	const procs = 64
	for _, stopAt := range []time.Duration{0, 2 * time.Millisecond} {
		before := runtime.NumGoroutine()
		k := NewKernel(1)
		for i := 0; i < procs; i++ {
			k.GoArg("sleeper", func(ms uint64) {
				_ = k.Sleep(time.Duration(ms) * time.Millisecond)
			}, uint64(1+i%4))
		}
		if stopAt > 0 {
			k.At(stopAt, "watchdog", k.Stop)
		}
		k.Run()
		if st := k.Stats(); st.ProcsStarted < procs {
			t.Fatalf("stop=%v: %d coroutines started, want ≥ %d: nothing to release", stopAt, st.ProcsStarted, procs)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("stop=%v: %d goroutines before Run, %d after:\n%s", stopAt, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
