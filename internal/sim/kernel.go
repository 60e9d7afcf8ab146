// Package sim is a deterministic discrete-event simulation kernel for
// the testbed: a virtual clock, an event queue keyed by (time, sequence
// number), cooperatively scheduled processes, lightweight callback
// events, and a virtual-clock Transport implementing simnet.Transport
// so Chord, Kademlia and every sampler run on simulated time unmodified.
//
// The kernel executes at most one piece of user code at a time. Two
// event kinds share one queue and one (time, seq) order:
//
//   - Process events (Go/At/GoArg) back a coroutine: the process runs
//     until it sleeps (directly via Kernel.Sleep, or implicitly inside a
//     Transport.Call paying its link latency), yielding to the kernel,
//     which pops the next event and resumes whoever it wakes. Coroutines
//     are pooled: a finished process parks its coroutine for the next
//     spawn, so steady-state spawning allocates nothing.
//   - Callback events (Post/PostAt) are plain function calls dispatched
//     inline on the kernel goroutine: no coroutine, no handoff, no
//     per-event allocation. They are the run-to-completion fast path
//     for timers and coordinators that never block — a callback must
//     not call Sleep or issue latency-paying transport calls.
//
// Sleep itself takes a run-to-completion shortcut: when no queued event
// precedes the wake-up time, the sleeping process continues inline —
// same clock jump, same (time, seq, name) observer record, no handoff.
// A lone sampler ticking through virtual time therefore costs
// nanoseconds per event; a handoff (KernelStats.Handoffs counts them)
// is paid only when another event genuinely interleaves.
//
// The handoff is one primitive with four operations — start a pooled
// coroutine, wake it from Run, park it from Sleep, release it when Run
// drains — and the toolchain, not a knob, picks its implementation.
// From Go 1.23 it is iter.Pull (handoff_coro.go): wake and park are
// runtime coroutine switches, a direct jump between two goroutines on
// one thread that never enters the scheduler's run queue, so an event
// that switches costs ≈ 1 µs with the overlay work it carries. Before
// 1.23 it is a resume/yield channel pair (handoff_chan.go): the same
// wake/park is two channel handoffs through the scheduler, each of
// which may wake an idle P or migrate threads, ≈ 2 µs per event. The
// fallback exists only because go.mod says go 1.22; it runs the same
// events in the same order (TestDeterminismPinnedTrace holds both to
// one committed trace) and goes when the go line may move.
//
// Because user code never runs concurrently either way, a simulation is
// a pure function of its seeds and schedule: event order, latency
// histograms and sampled peers are bit-identical at any GOMAXPROCS,
// which the determinism tests assert.
//
// Two usage modes:
//
//   - Kernel mode: spawn processes with Go/At and post callbacks, then
//     Run. Arrivals, departures, maintenance sweeps and fault scripts
//     are just timed events, concurrent in virtual time with in-flight
//     samples.
//   - Free-running mode: use a Transport without ever calling Run. Each
//     Call advances the virtual clock by the sampled latency in the
//     caller's goroutine. This is the right mode for sequential
//     workloads (conformance suites, latency CDFs) and costs a few
//     nanoseconds over the Direct transport.
//
// The two modes must not overlap: while Run is active, only kernel
// processes may touch the kernel or its transports.
package sim

import (
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock counting nanoseconds since the start of the
// simulation. The zero value reads zero and is ready to use. Reads are
// safe from any goroutine.
type Clock struct {
	nanos atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.nanos.Load()) }

// Advance moves the clock forward by d (non-positive d is a no-op). It
// is used by free-running transports; under a kernel the event loop owns
// the clock.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.nanos.Add(int64(d))
	}
}

// set jumps the clock to an absolute reading (event-loop use only).
func (c *Clock) set(t time.Duration) { c.nanos.Store(int64(t)) }

// ErrStopped is returned by Sleep after Stop: the sleeping process is
// being unwound so the kernel can drain. Transports translate it to
// simnet.ErrClosed, so protocol code unwinds through its normal error
// paths.
var ErrStopped = errors.New("sim: kernel stopped")

// event is one queue entry: at virtual time "at", either resume process
// p or invoke callback fn. seq breaks ties deterministically in
// schedule order. Events are stored by value directly in the queue
// slice — scheduling reuses the slice's capacity instead of allocating
// a record per event.
type event struct {
	at   time.Duration
	seq  uint64
	p    *proc  // coroutine to resume; nil for callback events
	fn   func() // callback to invoke inline; nil for process events
	name string
}

// proc is one cooperatively scheduled process on a pooled coroutine.
// The embedded handoff and its start/wake/park/release methods come
// from handoff_coro.go or handoff_chan.go (see the package comment).
// Exactly one of {kernel, this process} runs between any matched
// wake/park, which both serializes all user code and establishes
// happens-before for the kernel's plain fields. The coroutine stays
// parked between uses, so the kernel's free list hands spawns a warm
// one instead of creating a proc and a goroutine per spawn.
type proc struct {
	name  string
	fn    func()       // body (Go/At)
	fnArg func(uint64) // body with one word of state (GoArg); fn nil
	arg   uint64
	done  bool // set by the coroutine when the body returned
	handoff
}

// run is what the pooled coroutine does per spawn: run the scheduled
// function, then mark the proc done so the kernel recycles it when the
// handoff switches back.
func (p *proc) run() {
	if p.fnArg != nil {
		p.fnArg(p.arg)
	} else {
		p.fn()
	}
	p.fn, p.fnArg = nil, nil
	p.done = true
}

// Kernel is the discrete-event scheduler. Create with NewKernel; zero
// value is not usable.
type Kernel struct {
	clock       Clock
	queue       []event // 4-ary min-heap on (at, seq)
	seq         uint64
	rng         *rand.Rand
	cur         *proc
	stopped     bool
	dispatching bool // a Post callback is executing on the kernel goroutine
	processed   uint64
	free        []*proc // parked coroutines ready for reuse
	observer    func(at time.Duration, seq uint64, proc string)

	// Kernel statistics (see Stats). Plain fields like the rest of the
	// kernel state: updated only by the event loop's goroutine, read by
	// Stats between runs.
	heapHW       int    // high-water event-queue depth
	procsStarted uint64 // coroutine goroutines created
	handoffs     uint64 // process events that switched coroutine (wake calls)
	procsReused  uint64 // spawns served from the pool
}

// NewKernel returns a kernel whose Rand is seeded from seed. Equal seeds
// plus equal schedules reproduce identical simulations.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.clock.Now() }

// Clock exposes the kernel's virtual clock (for transports and readers).
func (k *Kernel) Clock() *Clock { return &k.clock }

// Rand is the kernel's seeded generator. Processes run one at a time,
// so draws interleave deterministically.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Stopped reports whether Stop was called. Long-running processes should
// poll it (or propagate Sleep/Call errors) so the kernel can drain.
func (k *Kernel) Stopped() bool { return k.stopped }

// Processed returns the number of events executed so far — a cheap
// fingerprint for determinism checks alongside SetObserver.
func (k *Kernel) Processed() uint64 { return k.processed }

// SetObserver installs a hook called for every event the loop executes,
// with the event's virtual time, sequence number and process name.
// Determinism tests hash this trace.
func (k *Kernel) SetObserver(fn func(at time.Duration, seq uint64, proc string)) {
	k.observer = fn
}

// 4-ary min-heap on (at, seq). A 4-ary layout halves the tree depth of
// the binary container/heap it replaced and keeps parent and children
// within one or two cache lines of each other; with value-typed events
// there is no per-event allocation and no interface boxing on push/pop.

// eventLess orders events by (time, then schedule order).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends e and sifts it up.
func (k *Kernel) heapPush(e event) {
	q := append(k.queue, e)
	if len(q) > k.heapHW {
		k.heapHW = len(q)
	}
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	k.queue = q
}

// heapPop removes and returns the minimum event.
func (k *Kernel) heapPop() event {
	q := k.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release fn/proc references
	q = q[:last]
	k.queue = q
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(q) {
			break
		}
		best := first
		end := first + 4
		if end > len(q) {
			end = len(q)
		}
		for c := first + 1; c < end; c++ {
			if eventLess(&q[c], &q[best]) {
				best = c
			}
		}
		if !eventLess(&q[best], &q[i]) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// Go spawns a process at the current virtual time.
func (k *Kernel) Go(name string, fn func()) { k.At(k.Now(), name, fn) }

// At spawns a process at absolute virtual time t (clamped to now).
// Processes are started in (time, schedule-order) just like any other
// event; fn runs on a pooled coroutine goroutine but never concurrently
// with other simulation code.
func (k *Kernel) At(t time.Duration, name string, fn func()) {
	p := k.getProc(name)
	p.fn = fn
	k.scheduleProc(t, p)
}

// GoArg spawns a process at the current virtual time whose body
// receives one word of state. Unlike a closure capturing arg, the
// (fn, arg) pair is stored in the pooled proc record, so spawning in a
// loop — one maintenance process per overlay member, say — allocates
// nothing per spawn.
func (k *Kernel) GoArg(name string, fn func(uint64), arg uint64) {
	p := k.getProc(name)
	p.fnArg = fn
	p.arg = arg
	k.scheduleProc(k.Now(), p)
}

// getProc takes a parked coroutine from the free list or starts a new
// one.
func (k *Kernel) getProc(name string) *proc {
	var p *proc
	if n := len(k.free); n > 0 {
		p = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		k.procsReused++
	} else {
		p = &proc{}
		p.start()
		k.procsStarted++
	}
	p.name = name
	return p
}

func (k *Kernel) scheduleProc(t time.Duration, p *proc) {
	if t < k.Now() {
		t = k.Now()
	}
	k.seq++
	k.heapPush(event{at: t, seq: k.seq, p: p, name: p.name})
}

// Post schedules fn as a callback event delay from now (clamped to
// zero). PostAt documents the contract.
func (k *Kernel) Post(delay time.Duration, name string, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.PostAt(k.Now()+delay, name, fn)
}

// PostAt schedules fn as a callback event at absolute virtual time t
// (clamped to now). When its time comes the event loop invokes fn
// inline on the kernel goroutine: no coroutine, no handoff, and no
// allocation beyond the queue slot — the zero-cost path for timers,
// periodic coordinators and fault scripts. fn runs with the clock set
// to t and may Post further callbacks or spawn processes, but it must
// not block: calling Sleep (or a kernel-bound Transport.Call, which
// sleeps to pay its latency) from a callback panics, because a callback
// has no coroutine to suspend.
func (k *Kernel) PostAt(t time.Duration, name string, fn func()) {
	if t < k.Now() {
		t = k.Now()
	}
	k.seq++
	k.heapPush(event{at: t, seq: k.seq, fn: fn, name: name})
}

// Sleep suspends the calling process for virtual duration d (negative d
// counts as zero); other processes and timed events run in between.
// When nothing is scheduled before the wake-up the process continues
// inline — the run-to-completion fast path: the event is executed
// (clock jump, sequence number, observer record) without the coroutine
// handoff, producing a bit-identical trace at a fraction of the cost.
// It returns ErrStopped when the kernel is
// draining after Stop. Called from outside any process — the
// free-running mode — it simply advances the clock and returns nil.
// Called from a Post callback it panics: callbacks cannot block.
func (k *Kernel) Sleep(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	p := k.cur
	if p == nil {
		if k.dispatching {
			panic("sim: Sleep from a Post callback; callbacks must not block (use a process)")
		}
		k.clock.Advance(d)
		return nil
	}
	if k.stopped {
		return ErrStopped
	}
	at := k.Now() + d
	if len(k.queue) == 0 || k.queue[0].at > at {
		// Run-to-completion fast path: the wake-up would be the very
		// next event (ties lose to already-queued events, and the queue
		// has none at or before "at"), so dispatch it inline. Identical
		// (time, seq, name) record, no handoff.
		k.seq++
		k.clock.set(at)
		k.processed++
		if k.observer != nil {
			k.observer(at, k.seq, p.name)
		}
		return nil
	}
	k.seq++
	k.heapPush(event{at: at, seq: k.seq, p: p, name: p.name})
	p.park()
	if k.stopped {
		return ErrStopped
	}
	return nil
}

// Stop begins draining: the clock freezes, every in-flight Sleep returns
// ErrStopped as its process is next woken, pending and newly posted
// callback events are discarded unexecuted, and Run returns once all
// processes have unwound. Call it from a process (e.g. a timed
// watchdog) to end an open-ended simulation.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty: every spawned process
// has returned, every callback has fired and no sleeper remains. It
// must be called from the goroutine that owns the kernel, and nothing
// else may use the kernel or its transports while it runs. When it
// returns, the pooled coroutines it started have been released. Where
// a panicking process body surfaces depends on the handoff: from Go
// 1.23 the panic propagates out of wake into Run and on to Run's
// caller; before 1.23 it is raised on the process's own goroutine,
// where nothing above the kernel can recover it. Either way the kernel
// is not usable afterwards.
func (k *Kernel) Run() {
	for len(k.queue) > 0 {
		ev := k.heapPop()
		if ev.fn != nil && k.stopped {
			// Draining: discard pending callbacks (unexecuted,
			// uncounted, unobserved) instead of running them. A
			// callback has no coroutine to unwind through ErrStopped,
			// and a self-reposting timer chain would otherwise repost
			// at the frozen clock forever, staying ahead of every
			// sleeper's wake event and hanging the drain.
			continue
		}
		if !k.stopped {
			k.clock.set(ev.at)
		}
		k.processed++
		if k.observer != nil {
			k.observer(ev.at, ev.seq, ev.name)
		}
		if ev.fn != nil {
			// Callback event: plain function call on this goroutine.
			k.dispatching = true
			ev.fn()
			k.dispatching = false
			continue
		}
		k.cur = ev.p
		k.handoffs++
		ev.p.wake()
		k.cur = nil
		if ev.p.done {
			ev.p.done = false
			k.free = append(k.free, ev.p)
		}
	}
	// Drained: release the parked coroutines. Every process has returned
	// (sleepers always hold a queued wake event, so an empty queue means
	// none remain), and releasing each pooled coroutine ends its goroutine
	// rather than leaking it parked forever.
	for i, p := range k.free {
		p.release()
		k.free[i] = nil
	}
	k.free = k.free[:0]
}
