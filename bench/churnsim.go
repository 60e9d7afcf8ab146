package main

import (
	"fmt"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/exp"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// churnSim runs exp.RunSLOScenario, the E28 scenario, unit after unit:
// 512 peers, an open-loop lognormal/Zipf request stream of 2 ms mean
// gap issued in virtual time beside join/crash events and maintenance
// sweeps, on constant 1 ms links. The loop is open by construction and
// never late, because arrivals are virtual.
type churnSim struct{ backend string }

func (c churnSim) name() string { return c.backend + "-churn-simtime" }

// unitRequests sizes one scenario to about a second of host time on the
// reference box, so a timed window holds several and overruns by at
// most one. Events keep the E28 density of 16 per 1000 requests.
func (c churnSim) unitRequests() int {
	if c.backend == "kademlia" {
		return 500
	}
	return 1500
}

func churnEvents(requests int) int { return max(1, requests*16/1000) }

var simLink = sim.Constant{RTT: time.Millisecond}

// scenario is the same for every unit and every -seed: the scenario
// draws its ring, its churn schedule and its arrivals from one seed,
// and host cost swings by a factor of two between rings (see netSeed).
// Units repeat it, so the simulated results are constants of the code
// under test and only host time varies.
func (c churnSim) scenario(requests int) exp.SLOScenario {
	sc := exp.DefaultSLOScenario(c.backend, false, simLink, netSeed)
	sc.Requests = requests
	sc.ChurnEvents = churnEvents(requests)
	return sc
}

// churnTotals pools scenario units.
type churnTotals struct {
	units             int
	completed, failed int64
	hostWall          time.Duration // kernel run time, set-up excluded
	virtual           time.Duration
	kernelEvents      uint64
	latency           obs.HistSnapshot
	first             *exp.SLOResult
}

// units runs scenario units until the budget is spent. An operation is
// one simulated request.
func (c churnSim) units(o *outcome, e env, bud budget) (*churnTotals, error) {
	tot := &churnTotals{}
	for bud.more(int(tot.completed+tot.failed), time.Now()) {
		requests := c.unitRequests()
		if bud.ops > 0 {
			requests = min(requests, bud.ops-int(tot.completed+tot.failed))
		}
		sc := c.scenario(requests)
		res, err := exp.RunSLOScenario(sc)
		if err != nil {
			return nil, err
		}
		if res.StepErrors != 0 {
			o.violatef("unit %d: %d churn step errors", tot.units, res.StepErrors)
		}
		if res.ChurnEvents != sc.ChurnEvents {
			o.violatef("unit %d: %d churn events ran, %d scheduled", tot.units, res.ChurnEvents, sc.ChurnEvents)
		}
		if res.Completed+res.Failed != int64(requests) {
			o.violatef("unit %d: %d requests accounted for, %d issued", tot.units, res.Completed+res.Failed, requests)
		}
		if tot.first == nil {
			tot.first = res
		}
		tot.units++
		tot.completed += res.Completed
		tot.failed += res.Failed
		tot.hostWall += res.RunWall
		tot.virtual += res.Virtual
		tot.kernelEvents += res.KernelEvents
		for _, w := range res.Windows {
			tot.latency.Count += w.Latency.Count
			tot.latency.SumNanos += w.Latency.SumNanos
			for i := range tot.latency.Buckets {
				tot.latency.Buckets[i] += w.Latency.Buckets[i]
			}
		}
	}
	return tot, nil
}

func (c churnSim) run(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	// The scenario builds inside RunSLOScenario, and what it builds (the
	// ring, the overlay, the generator's Zipf table over 2^20 clients)
	// does not depend on the request count: a scenario of one request
	// and no churn (so no maintenance sweep either) is set-up and next
	// to nothing else.
	bare := c.scenario(1)
	bare.ChurnEvents = 0
	_, setup, err := medianSetup(e, func() (*exp.SLOResult, error) { return exp.RunSLOScenario(bare) }, nil)
	if err != nil {
		return nil, err
	}
	if _, err := c.units(o, e, budget{ops: c.unitRequests() / 10}); err != nil {
		return nil, err
	}
	tot, err := c.units(o, e, e.budget(1))
	if err != nil {
		return nil, err
	}
	// A simulated request lost to simulated churn is the scenario's
	// result, like a simulated latency: it lowers ok_share and leaves
	// the run correct. failed counts what the program could not do.
	o.attempted = tot.completed + tot.failed
	o.vals["setup_s"] = setup
	o.vals["samples_per_s"] = float64(tot.completed) / tot.hostWall.Seconds()
	amortisedLatency(o, tot.hostWall, o.attempted)
	o.vals["ok_share"] = float64(tot.completed) / float64(o.attempted)
	o.vals["peak_rss_mb"] = peakRSSMB()
	o.notef("%d units of %d requests + %d churn events on 512 peers: %d completed, %d lost to churn, virt p50=%.3fms p99=%.3fms",
		tot.units, c.unitRequests(), churnEvents(c.unitRequests()), tot.completed, tot.failed,
		ms(tot.latency.Quantile(0.50)), ms(tot.latency.Quantile(0.99)))
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (c churnSim) trace(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	v := o.vals
	before := snapProc()
	tot, err := c.units(o, e, e.budget(0.5))
	if err != nil {
		return nil, err
	}
	after := snapProc()
	o.attempted = tot.completed + tot.failed
	procMetrics(v, before, after, o.attempted)
	v["fail_share"] = float64(tot.failed) / float64(o.attempted)
	v["virt_p50_ms"] = ms(tot.latency.Quantile(0.50))
	v["virt_p99_ms"] = ms(tot.latency.Quantile(0.99))
	v["sim.ns_per_event"] = float64(tot.hostWall) / float64(tot.kernelEvents)
	v["sim.host_s_per_virtual_s"] = tot.hostWall.Seconds() / tot.virtual.Seconds()
	// Counts are read off the first unit: every full unit repeats it,
	// and only the last unit of a fixed operation count can be shorter.
	first := tot.first
	v["sim.kernel_events"] = float64(first.KernelEvents)
	v["load.completed"] = float64(first.Completed)
	v["load.failed"] = float64(first.Failed)
	v["churn.events"] = float64(first.ChurnEvents)
	v["churn.step_errors"] = float64(first.StepErrors)
	v["slo.windows"] = float64(len(first.Windows))
	v["slo.budget_consumed_pct"] = 100 * first.Report.BudgetConsumed
	v["slo.max_burn_rate"] = first.Report.MaxBurnRate

	points, err := c.points()
	if err != nil {
		return nil, err
	}
	if err := c.churnProbe(v, e.seed, points); err != nil {
		return nil, err
	}

	// Sampling probe: the scenario builds its own transport, so the
	// read path is traced on an identical overlay over a virtual-clock
	// transport of our own, plain and then decorated.
	newSim := func() simnet.Transport {
		return sim.NewTransport(sim.WithModel(simLink), sim.WithStreamSeed(e.seed))
	}
	prefix := budget{ops: max(1, c.unitRequests()/10)}
	plain, err := buildStatic(c.backend, len(points), e.seed, newSim, nil)
	if err != nil {
		return nil, err
	}
	owners, _, wall, err := plain.loop(o, prefix)
	if err != nil {
		return nil, err
	}
	o.notef("the sampling probe stands beside the scenario, which cannot be decorated")
	return o, tracePrefix(o, e, c.name(), c.backend, "sim", len(points), newSim, owners, wall)
}

// points places as many peers as the scenario has, for the probes.
func (c churnSim) points() ([]ring.Point, error) {
	r, err := ring.Generate(pcg(netSeed), c.scenario(1).Peers)
	if err != nil {
		return nil, err
	}
	return r.Points(), nil
}

// churnProbe times the overlay's write paths: the synchronous churn
// driver over a decorated churn.Overlay, as many events as one unit.
func (c churnSim) churnProbe(v values, seed uint64, points []ring.Point) error {
	tr := sim.NewTransport(sim.WithModel(simLink), sim.WithStreamSeed(seed))
	_, ov, err := buildOverlay(c.backend, tr, points)
	if err != nil {
		return err
	}
	timed := &timedOverlay{Overlay: ov}
	driver, err := churn.NewDriver(timed, pcg(seed+3), churn.Config{
		Events:    churnEvents(c.unitRequests()),
		Protected: map[ring.Point]bool{points[0]: true},
	})
	if err != nil {
		return err
	}
	if err := driver.Run(nil); err != nil {
		return fmt.Errorf("churn probe: %w", err)
	}
	v[c.backend+".join_us"] = timed.join.usPer()
	v[c.backend+".crash_us"] = timed.crash.usPer()
	v[c.backend+".maintain_us"] = timed.maintain.usPer()
	return nil
}
