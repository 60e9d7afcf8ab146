package main

import (
	"fmt"
	"os"
	"time"

	"github.com/dht-sampling/randompeer/internal/exp"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// SLOBench records one E28 scenario run per backend: the open-loop
// sample workload under churn, windowed in virtual time and evaluated
// against the default objectives. Every field except the wall-clock
// pair is a deterministic function of the scenario (same seed, same
// numbers on any machine), so the committed snapshot doubles as a
// behavioral record: a PR that changes p99_ms or availability changed
// the system, not the benchmark box, and benchdiff fails on it.
// RunWallMS and RequestsPerSecWall carry this box's wall clock and are
// only reported.
type SLOBench struct {
	Backend            string  `json:"backend"`
	Peers              int     `json:"peers"`
	Requests           int64   `json:"requests"`
	Failed             int64   `json:"failed"`
	ChurnEvents        int     `json:"churn_events"`
	Windows            int     `json:"windows"`
	P50Ms              float64 `json:"p50_ms"`
	P95Ms              float64 `json:"p95_ms"`
	P99Ms              float64 `json:"p99_ms"`
	Availability       float64 `json:"availability"`
	BudgetConsumedPct  float64 `json:"budget_consumed_pct"`
	MaxBurnRate        float64 `json:"max_burn_rate"`
	FastBurnWindows    int     `json:"fast_burn_windows"`
	VnodeImbalanceOff  float64 `json:"vnode_imbalance_off"`
	VnodeImbalanceOn   float64 `json:"vnode_imbalance_on"`
	Met                bool    `json:"met"`
	VirtualMS          float64 `json:"virtual_ms"`
	RunWallMS          float64 `json:"run_wall_ms"`
	RequestsPerSecWall float64 `json:"requests_per_sec_wall"`
}

// measureSLO runs the full-size E28 scenario for each backend through
// the same internal/exp runner the experiment table uses and maps the
// results into the committed snapshot record.
func measureSLO(backends []string, seed uint64) ([]SLOBench, error) {
	var out []SLOBench
	for _, backend := range backends {
		sc := exp.DefaultSLOScenario(backend, false, sim.Constant{RTT: time.Millisecond}, seed)
		fmt.Fprintf(os.Stderr, "benchsnap: E28 SLO scenario — %s at n=%d, %d requests, %d churn events...\n",
			backend, sc.Peers, sc.Requests, sc.ChurnEvents)
		res, err := exp.RunSLOScenario(sc)
		if err != nil {
			return nil, err
		}
		rep := res.Report
		b := SLOBench{
			Backend:            backend,
			Peers:              sc.Peers,
			Requests:           rep.TotalRequests,
			Failed:             rep.TotalFailed,
			ChurnEvents:        res.ChurnEvents,
			Windows:            len(rep.Windows),
			P50Ms:              msF(res.OverallQuantile(0.50)),
			P95Ms:              msF(res.OverallQuantile(0.95)),
			P99Ms:              msF(res.OverallQuantile(0.99)),
			Availability:       rep.Availability,
			BudgetConsumedPct:  rep.BudgetConsumed * 100,
			MaxBurnRate:        rep.MaxBurnRate,
			FastBurnWindows:    rep.FastBurnWindows,
			VnodeImbalanceOff:  res.VnodeOff.Imbalance,
			VnodeImbalanceOn:   res.VnodeOn.Imbalance,
			Met:                rep.Met,
			VirtualMS:          msF(res.Virtual),
			RunWallMS:          msF(res.RunWall),
			RequestsPerSecWall: float64(rep.TotalRequests) / res.RunWall.Seconds(),
		}
		out = append(out, b)
		fmt.Fprintf(os.Stderr, "benchsnap: E28 %s: p99 %.0fms, avail %.4f, budget %.0f%%, met=%v (%.2fs wall)\n",
			backend, b.P99Ms, b.Availability, b.BudgetConsumedPct, b.Met, res.RunWall.Seconds())
	}
	return out, nil
}

// msF converts a duration to float milliseconds.
func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
