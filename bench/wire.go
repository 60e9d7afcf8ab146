package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/cluster"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// chord-wire-3d: three randpeerd processes holding a 256-peer chord
// overlay between them, and two closed-loop clients (each waits for its
// reply) sending /v1/sample requests round-robin over loopback TCP.
const (
	wireDaemons = 3
	wirePeers   = 256
	wireClients = 2
)

// daemonBinary builds cmd/randpeerd into the checkout's build directory
// and points the cluster harness at it, before any clock starts. Left
// alone the harness would build into the system temp directory.
func daemonBinary(root string) error {
	bin := filepath.Join(root, ".bench_build", "randpeerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/randpeerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: building randpeerd: %v\n%s", err, out)
	}
	return os.Setenv("RANDPEERD_BIN", bin)
}

type wireBed struct {
	c         *cluster.Cluster
	view      dht.DHT
	members   map[uint64]bool
	start     time.Duration
	provision time.Duration
}

func buildWire() (*wireBed, error) {
	r, err := ring.Generate(pcg(netSeed), wirePeers)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := cluster.Start(wireDaemons)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	view, err := c.Provision("chord", r.Points())
	if err != nil {
		c.Close()
		return nil, err
	}
	members := make(map[uint64]bool, wirePeers)
	for _, p := range r.Points() {
		members[uint64(p)] = true
	}
	return &wireBed{c, view, members, t1.Sub(t0), time.Since(t1)}, nil
}

// daemonCost sums the daemons' meters (GET /v1/metrics).
func (b *wireBed) daemonCost() (cluster.MetricsResponse, error) {
	var sum cluster.MetricsResponse
	for i := 0; i < b.c.Size(); i++ {
		m, err := cluster.MetricsAt(b.c.Addr(i))
		if err != nil {
			return sum, err
		}
		sum.Calls += m.Calls
		sum.Messages += m.Messages
		sum.Failures += m.Failures
		sum.ServedCalls += m.ServedCalls
	}
	return sum, nil
}

// requests drives the closed-loop clients until the budget is spent.
// Request i goes to daemon i mod 3 with its own seed; every returned
// point must be a provisioned one. It returns the latencies in
// microseconds, the failed count and the wall time.
//
// The request seeds do not move with -seed. A window holds some 400
// requests whose cost varies as much as its mean (trials are
// geometric), so a fresh draw of 400 moves the rate by 15% and the
// 95th percentile by 25% between runs of the same code; every run
// replays one stream instead, like the fixed network (see netSeed).
func (b *wireBed) requests(o *outcome, bud budget) (lat []float64, failed int64, wall time.Duration) {
	var next, bad atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < wireClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for {
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				if !bud.more(i, t0) {
					break
				}
				resp, err := cluster.SampleAt(b.c.Addr(i%b.c.Size()), 1, subSeed(netSeed, i))
				mine = append(mine, float64(time.Since(t0))/1e3)
				if err != nil || len(resp.Points) != 1 {
					bad.Add(1)
					continue
				}
				if !b.members[resp.Points[0]] {
					mu.Lock()
					o.violatef("request %d returned point %d, which was not provisioned", i, resp.Points[0])
					mu.Unlock()
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, bad.Load(), time.Since(start)
}

func runWire(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	if err := daemonBinary(e.root); err != nil {
		return nil, err
	}
	bed, setup, err := medianSetup(e, func() (*wireBed, error) { return buildWire() },
		func(b *wireBed) { b.c.Close() })
	if err != nil {
		return nil, err
	}
	defer bed.c.Close()
	bed.requests(o, budget{ops: 2 * wireDaemons})
	cost0, err := bed.daemonCost()
	if err != nil {
		return nil, err
	}
	lat, failed, wall := bed.requests(o, e.budget(1))
	cost1, err := bed.daemonCost()
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(lat))
	o.failed = failed
	o.vals["setup_s"] = setup
	o.vals["samples_per_s"] = float64(o.attempted-failed) / wall.Seconds()
	latencyMetrics(o, lat)
	o.vals["ok_share"] = float64(o.attempted-failed) / float64(o.attempted)
	o.vals["peak_rss_mb"] = peakRSSMB()
	o.notef("%d daemons, %d peers, %d closed-loop clients, %d requests; traffic crossed the host's loopback interface, not a link; msgs_per_sample=%v",
		wireDaemons, wirePeers, wireClients, o.attempted, float64(cost1.Messages-cost0.Messages)/float64(o.attempted))
	return o, nil
}

func traceWire(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	v := o.vals
	if err := daemonBinary(e.root); err != nil {
		return nil, err
	}
	bed, err := buildWire()
	if err != nil {
		return nil, err
	}
	defer bed.c.Close()
	v["cluster.start_ms"] = ms(bed.start)
	v["cluster.provision_ms"] = ms(bed.provision)

	// The daemons cannot be decorated from here, so their layers are
	// read from their own counters around an untraced run.
	scrape0, err := bed.c.Scrape()
	if err != nil {
		return nil, err
	}
	cost0, err := bed.daemonCost()
	if err != nil {
		return nil, err
	}
	before := snapProc()
	lat, failed, _ := bed.requests(o, e.budget(0.5))
	after := snapProc()
	cost1, err := bed.daemonCost()
	if err != nil {
		return nil, err
	}
	scrape1, err := bed.c.Scrape()
	if err != nil {
		return nil, err
	}
	requests := float64(len(lat))
	o.attempted, o.failed = int64(len(lat)), failed
	procMetrics(v, before, after, o.attempted)
	v["fail_share"] = float64(failed) / requests
	v["msgs_per_sample"] = float64(cost1.Messages-cost0.Messages) / requests
	v["wire.calls_per_request"] = float64(cost1.Calls-cost0.Calls) / requests
	v["wire.failures"] = float64(cost1.Failures - cost0.Failures)
	v["wire.retries"] = scrape1.Delta(scrape0).Series["wire_rpc_retries_total"]
	v["daemon.served_calls"] = float64(cost1.ServedCalls - cost0.ServedCalls)

	// The HTTP floor: a request that does no sampling.
	floor := make([]float64, 0, 300)
	for i := 0; i < cap(floor); i++ {
		t0 := time.Now()
		if _, err := cluster.HealthAt(bed.c.Addr(i % bed.c.Size())); err != nil {
			return nil, err
		}
		floor = append(floor, float64(time.Since(t0))/1e3)
	}
	v["daemon.http_floor_us"] = median(floor)
	v["daemon.inside_us"] = median(lat) - v["daemon.http_floor_us"]

	// The client-side view Provision returns crosses the same wire
	// transport: one Next is one RPC, and a size estimate is what a
	// daemon pays at the start of every request.
	sv, ok := bed.view.(overlayView)
	if !ok {
		return nil, fmt.Errorf("bench: provisioned view %T does not name its caller", bed.view)
	}
	self := sv.Self()
	p := self
	const rpcs = 300
	t0 := time.Now()
	for i := 0; i < rpcs; i++ {
		if p, err = bed.view.Next(p); err != nil {
			return nil, err
		}
	}
	v["wire.rpc_us_per_call"] = float64(time.Since(t0)) / 1e3 / rpcs
	const estimates = 5
	t0 = time.Now()
	for i := 0; i < estimates; i++ {
		if _, err := core.EstimateN(bed.view, self, 2); err != nil {
			return nil, err
		}
	}
	v["core.estimate_us"] = float64(time.Since(t0)) / 1e3 / estimates

	// Sampling probe from the client's side of the wire: a tenth as
	// many samples as requests, through the DHT and sampler decorators.
	t := newTracer()
	s, err := core.New(tracedDHT{bed.view, t}, self, pcg(e.seed+1), core.Config{})
	if err != nil {
		return nil, err
	}
	meter := bed.view.Meter()
	calls0 := meter.Snapshot().Calls
	t.on = true
	_, twall, err := closedLoop(budget{ops: max(1, len(lat)/10)}, func(int) error {
		p, err := tracedSampler{s, t}.Sample()
		if err == nil && !bed.members[uint64(p.Point)] {
			o.violatef("client-side sample returned %v, which was not provisioned", p)
		}
		return err
	})
	t.on = false
	if err != nil {
		return nil, err
	}
	hops := float64(meter.Snapshot().Calls - calls0 - t.agg[opNext].count)
	t.ledger(v, "", "", hops, wirePeers)
	v["trace.self_sum_share"] = float64(t.selfSum()) / float64(twall)
	o.notef("client-side sampling probe; traffic crossed the host's loopback interface, not a link")
	return o, t.write(o, e.root, "chord-wire-3d", [numOps]string{"core", "wire", "wire"})
}
