package load

import (
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// The windowed recorder: a kernel ticker that snapshots an obs registry
// every Δt of virtual time and keeps the per-window deltas, turning
// end-of-run instrument totals into time series — per-window request
// rates, failure rates and latency quantiles — without the instruments
// themselves knowing anything about windows.
//
// Window-size tradeoff (see DESIGN.md §12): windows shorter than the
// typical request latency alias — a request's latency lands in the
// window where it completed, not where it arrived — while windows much
// longer than an SLO's burn-rate horizon smear bursts flat. The
// experiments use windows of ~100x the mean request latency, long
// enough that each window holds a statistically useful latency sample,
// short enough that a churn burst shows up as its own bad windows.
//
// The recorder only reads: it never mutates instruments, so enabling
// it cannot change workload behavior, and a disabled recorder costs
// nothing at all (there is no recorder check on any hot path — it
// simply isn't scheduled). Its ticker does consume event sequence
// numbers, shifting the seq of later workload events; the (time, name)
// order of workload events is preserved, which the determinism test
// asserts by comparing recorder-on and recorder-off traces.

// Window is one recorded interval: the per-series change over
// [Start, End) plus the instantaneous gauge readings at End.
type Window struct {
	Start, End time.Duration
	Delta      obs.RegistrySnapshot
}

// Recorder snapshots a registry on a fixed virtual-time period. Create
// with StartRecorder; read Windows after the kernel drains.
type Recorder struct {
	reg     *obs.Registry
	ticker  *sim.Ticker
	prev    obs.RegistrySnapshot
	start   time.Duration
	windows []Window
}

// StartRecorder begins recording: the registry is snapshotted now (the
// base reading) and then every window of virtual time by a kernel
// callback ticker; each tick stores the delta since the previous
// snapshot. Flush stops it and records the last partial window.
func StartRecorder(k *sim.Kernel, reg *obs.Registry, window time.Duration) *Recorder {
	r := &Recorder{reg: reg, prev: reg.Snapshot(), start: k.Now()}
	r.ticker = k.Every(k.Now()+window, window, "recorder", r.tick)
	return r
}

func (r *Recorder) tick(now time.Duration) {
	cur := r.reg.Snapshot()
	r.windows = append(r.windows, Window{Start: r.start, End: now, Delta: cur.Delta(r.prev)})
	r.prev = cur
	r.start = now
}

// Flush stops the ticker and records the partial window from the last
// tick to now, if any virtual time has passed. Call it after the
// kernel drains (with k.Now()) so the tail of the run isn't dropped.
func (r *Recorder) Flush(now time.Duration) {
	r.ticker.Stop()
	if now > r.start {
		r.tick(now)
	}
}

// Windows returns the recorded series in order. The slice is the
// recorder's own; read it only after the run.
func (r *Recorder) Windows() []Window { return r.windows }
