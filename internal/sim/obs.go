package sim

import "github.com/dht-sampling/randompeer/internal/obs"

// KernelStats is a snapshot of the kernel's internal counters —
// dispatch volume, queue pressure and coroutine-pool efficiency.
type KernelStats struct {
	// EventsDispatched counts executed events (same reading as
	// Processed): process resumes, inline callbacks and the Sleep
	// run-to-completion fast path all count one each.
	EventsDispatched uint64
	// Handoffs counts the process events among them that switched
	// coroutine: Run waking a process. Callbacks and inline Sleeps do
	// not, so EventsDispatched − Handoffs events cost a function call
	// and Handoffs events cost a switch into the process and one back.
	Handoffs uint64
	// HeapHighWater is the deepest the event queue has been — the
	// working-set bound a scenario's schedule puts on the kernel.
	HeapHighWater int
	// ProcsStarted counts coroutine goroutines actually created.
	ProcsStarted uint64
	// ProcsReused counts spawns served from the pool of parked
	// coroutines; a high reuse:started ratio is the pool doing its job.
	ProcsReused uint64
}

// Stats returns the kernel's counters. Like every kernel accessor it
// is meant for the goroutine that owns the kernel: read it between
// runs (or from a kernel process), not concurrently with Run.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		EventsDispatched: k.processed,
		Handoffs:         k.handoffs,
		HeapHighWater:    k.heapHW,
		ProcsStarted:     k.procsStarted,
		ProcsReused:      k.procsReused,
	}
}

// RegisterMetrics exposes the kernel's counters on an obs registry
// under the sim_kernel_ prefix. Scrape-time callbacks read the plain
// kernel fields, so scrape only while the kernel is idle (between Run
// calls) — the mode every experiment harness uses.
func (k *Kernel) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("sim_kernel_events_dispatched_total",
		"Events executed by the kernel loop (processes, callbacks, inline sleeps).",
		func() float64 { return float64(k.processed) })
	r.CounterFunc("sim_kernel_handoffs_total",
		"Process events that switched coroutine (not callbacks, not inline sleeps).",
		func() float64 { return float64(k.handoffs) })
	r.GaugeFunc("sim_kernel_heap_high_water",
		"Deepest event-queue depth observed.",
		func() float64 { return float64(k.heapHW) })
	r.CounterFunc("sim_kernel_procs_started_total",
		"Coroutine goroutines created for kernel processes.",
		func() float64 { return float64(k.procsStarted) })
	r.CounterFunc("sim_kernel_procs_reused_total",
		"Process spawns served from the parked-coroutine pool.",
		func() float64 { return float64(k.procsReused) })
}
