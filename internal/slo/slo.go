// Package slo is the service-level-objective engine: it consumes the
// per-window deltas produced by the windowed recorder (internal/load)
// or by cluster scrape deltas (internal/cluster) and evaluates them
// against configurable objectives — a latency objective (a quantile of
// request latency under a target) and an availability objective — with
// error-budget accounting and multi-window burn-rate detection.
//
// The package is deliberately kernel-free and transport-free: a window
// is just (interval, ok, failed, latency histogram), so the same
// engine reports on deterministic virtual-time simulations (E28) and
// on live wall-clock scrape deltas from a randpeerd fleet (/v1/slo).
//
// Definitions follow the standard error-budget formulation: a request
// is "bad" if it failed or breached the latency target; the error
// budget over a horizon of N requests is (1 - availability) * N bad
// events; a window's burn rate is its bad-event rate divided by the
// allowed rate, so burn 1.0 spends the budget exactly at the horizon
// and burn 14.4 exhausts a 30-day budget in 50 hours — the classic
// fast-burn page threshold.
package slo

import (
	"fmt"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Objectives are the targets a workload is held to.
type Objectives struct {
	// LatencyQuantile is the quantile the latency objective constrains,
	// e.g. 0.99 for "p99 under target".
	LatencyQuantile float64 `json:"latency_quantile"`
	// LatencyTarget is the latency objective: LatencyQuantile of
	// requests must complete within it.
	LatencyTarget time.Duration `json:"latency_target_ns"`
	// Availability is the fraction of requests that must be good, e.g.
	// 0.999. Its complement sizes the error budget.
	Availability float64 `json:"availability"`
	// FastBurn and SlowBurn are burn-rate thresholds (multiples of the
	// allowed bad-event rate) above which a window is flagged. Zero
	// values take the conventional defaults (14.4 and 6).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
}

// DefaultObjectives is a reasonable starting point: p99 under 100ms,
// 99.9% availability, conventional burn thresholds.
func DefaultObjectives() Objectives {
	return Objectives{
		LatencyQuantile: 0.99,
		LatencyTarget:   100 * time.Millisecond,
		Availability:    0.999,
		FastBurn:        14.4,
		SlowBurn:        6,
	}
}

// withDefaults fills zero burn thresholds.
func (o Objectives) withDefaults() Objectives {
	if o.FastBurn == 0 {
		o.FastBurn = 14.4
	}
	if o.SlowBurn == 0 {
		o.SlowBurn = 6
	}
	return o
}

// WindowInput is one recorded window: the raw deltas the engine
// evaluates. Latency must be the window's histogram delta (not a
// cumulative reading) covering every request, successful or not.
type WindowInput struct {
	Start, End time.Duration
	OK, Failed int64
	Latency    obs.HistSnapshot
}

// WindowReport is one evaluated window.
type WindowReport struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Requests is every request the window saw (ok + failed).
	Requests int64 `json:"requests"`
	Failed   int64 `json:"failed"`
	// P50/P95/P99 are the window's latency quantiles.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// LatencyBreaches estimates how many requests exceeded the latency
	// target (histogram CountAbove).
	LatencyBreaches int64 `json:"latency_breaches"`
	// BadEvents = Failed + LatencyBreaches. A failed request that was
	// also slow counts twice — the conservative direction for an
	// alerting signal.
	BadEvents int64 `json:"bad_events"`
	// BurnRate is the window's bad-event rate over the allowed rate
	// (zero when the window saw no requests).
	BurnRate float64 `json:"burn_rate"`
	FastBurn bool    `json:"fast_burn"`
	SlowBurn bool    `json:"slow_burn"`
}

// Report is the evaluated run: per-window detail plus whole-horizon
// error-budget accounting.
type Report struct {
	Objectives Objectives     `json:"objectives"`
	Windows    []WindowReport `json:"windows"`

	TotalRequests int64 `json:"total_requests"`
	TotalFailed   int64 `json:"total_failed"`
	TotalBreaches int64 `json:"total_breaches"`
	TotalBad      int64 `json:"total_bad"`
	// Availability is the realized good fraction, 1 - TotalBad/TotalRequests
	// (clamped at zero).
	Availability float64 `json:"availability"`
	// LatencyOverall is the realized LatencyQuantile over the whole
	// horizon's latency histogram.
	LatencyOverall time.Duration `json:"latency_overall_ns"`
	// ErrorBudget is the allowed bad events over this horizon:
	// (1 - objective availability) * TotalRequests.
	ErrorBudget float64 `json:"error_budget"`
	// BudgetConsumed is TotalBad / ErrorBudget (∞ reported as a large
	// finite value; 0 when the horizon saw no requests).
	BudgetConsumed float64 `json:"budget_consumed"`
	// MaxBurnRate is the worst window's burn rate.
	MaxBurnRate     float64 `json:"max_burn_rate"`
	FastBurnWindows int     `json:"fast_burn_windows"`
	SlowBurnWindows int     `json:"slow_burn_windows"`
	// Met reports whether both objectives held over the whole horizon:
	// realized availability ≥ objective and realized quantile ≤ target.
	Met bool `json:"met"`
}

// Evaluate runs the engine over a window series. Windows evaluate
// independently; the summary re-aggregates the raw deltas (not the
// per-window estimates), so whole-horizon quantiles come from the
// merged histogram rather than averaging window quantiles.
func Evaluate(obj Objectives, windows []WindowInput) Report {
	obj = obj.withDefaults()
	rep := Report{Objectives: obj, Windows: make([]WindowReport, 0, len(windows))}
	allowedRate := 1 - obj.Availability
	var total obs.HistSnapshot
	for _, in := range windows {
		w := WindowReport{
			Start:    in.Start,
			End:      in.End,
			Requests: in.OK + in.Failed,
			Failed:   in.Failed,
			P50:      in.Latency.Quantile(0.50),
			P95:      in.Latency.Quantile(0.95),
			P99:      in.Latency.Quantile(0.99),
		}
		w.LatencyBreaches = in.Latency.CountAbove(obj.LatencyTarget)
		w.BadEvents = w.Failed + w.LatencyBreaches
		if w.Requests > 0 && allowedRate > 0 {
			w.BurnRate = (float64(w.BadEvents) / float64(w.Requests)) / allowedRate
		}
		w.FastBurn = w.BurnRate >= obj.FastBurn
		w.SlowBurn = w.BurnRate >= obj.SlowBurn
		rep.Windows = append(rep.Windows, w)

		rep.TotalRequests += w.Requests
		rep.TotalFailed += w.Failed
		rep.TotalBreaches += w.LatencyBreaches
		rep.TotalBad += w.BadEvents
		if w.BurnRate > rep.MaxBurnRate {
			rep.MaxBurnRate = w.BurnRate
		}
		if w.FastBurn {
			rep.FastBurnWindows++
		}
		if w.SlowBurn {
			rep.SlowBurnWindows++
		}
		total = total.Add(in.Latency)
	}
	rep.LatencyOverall = total.Quantile(obj.LatencyQuantile)
	if rep.TotalRequests > 0 {
		rep.Availability = 1 - float64(rep.TotalBad)/float64(rep.TotalRequests)
		if rep.Availability < 0 {
			rep.Availability = 0
		}
		rep.ErrorBudget = allowedRate * float64(rep.TotalRequests)
		if rep.ErrorBudget > 0 {
			rep.BudgetConsumed = float64(rep.TotalBad) / rep.ErrorBudget
		} else if rep.TotalBad > 0 {
			rep.BudgetConsumed = float64(rep.TotalBad) // zero budget: any bad event overruns
		}
		rep.Met = rep.Availability >= obj.Availability && rep.LatencyOverall <= obj.LatencyTarget
	}
	return rep
}

// String summarizes the report in one line.
func (r Report) String() string {
	status := "MET"
	if !r.Met {
		status = "MISSED"
	}
	return fmt.Sprintf("slo %s: %d requests, availability %.4f (objective %.4f), p%g %v (target %v), budget consumed %.1f%%, max burn %.2f (%d fast, %d slow windows)",
		status, r.TotalRequests, r.Availability, r.Objectives.Availability,
		r.Objectives.LatencyQuantile*100, r.LatencyOverall, r.Objectives.LatencyTarget,
		r.BudgetConsumed*100, r.MaxBurnRate, r.FastBurnWindows, r.SlowBurnWindows)
}
