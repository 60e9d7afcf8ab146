package cluster

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/slo"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// parseReg renders a registry's exposition and parses it back — the
// same bytes a daemon scrape would carry.
func parseReg(t *testing.T, r *obs.Registry) *obstest.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := obstest.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("parsing own exposition: %v\n%s", err, buf.String())
	}
	return e
}

func scrapeAt(taken time.Time, exps ...*obstest.Exposition) *ClusterScrape {
	return &ClusterScrape{Taken: taken, Daemons: exps}
}

func TestScrapeDeltaSumsCountersClampsResets(t *testing.T) {
	mk := func(calls float64, owned float64) *obs.Registry {
		r := obs.NewRegistry()
		r.CounterFunc("rpc_total", "calls", func() float64 { return calls },
			obs.Label{Name: "dest", Value: "remote"})
		r.GaugeFunc("owned_nodes", "nodes", func() float64 { return owned })
		return r
	}
	epoch := time.Unix(100, 0)
	// Two daemons at t0; by t1 daemon 0 advanced 100 -> 140 while
	// daemon 1 restarted (its counter reset from 50 to 5).
	s0 := scrapeAt(epoch, parseReg(t, mk(100, 3)), parseReg(t, mk(50, 4)))
	s1 := scrapeAt(epoch.Add(time.Second), parseReg(t, mk(140, 3)), parseReg(t, mk(5, 4)))

	d := s1.Delta(s0)
	if d.Start != s0.Taken || d.End != s1.Taken {
		t.Fatalf("window [%v, %v]; want the capture times", d.Start, d.End)
	}
	// Daemon 0 contributes +40; daemon 1's reset clamps to zero (not
	// -45), then its post-restart 5 calls are absorbed into the next
	// window's baseline.
	if got := d.Series[`rpc_total{dest="remote"}`]; got != 40 {
		t.Fatalf("counter delta %v; want 40 (reset clamped to zero)", got)
	}
	// Gauges sum their latest readings, no differencing.
	if got := d.Series["owned_nodes"]; got != 7 {
		t.Fatalf("gauge %v; want 7 (latest readings summed)", got)
	}
}

func TestScrapeDeltaNilPrevAndFleetGrowth(t *testing.T) {
	mk := func(v float64) *obs.Registry {
		r := obs.NewRegistry()
		r.CounterFunc("rpc_total", "calls", func() float64 { return v })
		return r
	}
	now := time.Unix(200, 0)
	// nil prev: everything counts from zero.
	d := scrapeAt(now, parseReg(t, mk(30))).Delta(nil)
	if got := d.Series["rpc_total"]; got != 30 {
		t.Fatalf("nil-prev delta %v; want 30", got)
	}
	// A daemon joining between scrapes counts from zero too.
	s0 := scrapeAt(now, parseReg(t, mk(10)))
	s1 := scrapeAt(now.Add(time.Second), parseReg(t, mk(12)), parseReg(t, mk(8)))
	d = s1.Delta(s0)
	if got := d.Series["rpc_total"]; got != 10 {
		t.Fatalf("fleet-growth delta %v; want 2+8", got)
	}
}

// TestClusterSLO pins the live observability path end to end: fleet
// scrape deltas assemble into SLO windows, and each daemon's /v1/slo
// serves a live report over its own wall-clock windows.
func TestClusterSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 3, wire.WithJitterSeed(29))
	rng := rand.New(rand.NewPCG(61, 67))
	r, err := ring.Generate(rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Provision("chord", r.Points()); err != nil {
		t.Fatalf("provisioning: %v", err)
	}

	s0, err := c.Scrape()
	if err != nil {
		t.Fatalf("baseline scrape: %v", err)
	}
	// Window traffic: daemon 0 runs a sampler, which fans RPCs out
	// across the fleet through its own wire transport.
	if _, err := SampleAt(c.Addr(0), 8, 71); err != nil {
		t.Fatalf("sampling at daemon 0: %v", err)
	}
	s1, err := c.Scrape()
	if err != nil {
		t.Fatalf("window scrape: %v", err)
	}

	d := s1.Delta(s0)
	win := d.SLOWindow(s0.Taken)
	if win.OK <= 0 {
		t.Fatalf("fleet window saw %d successful RPCs; the sampler must have made some", win.OK)
	}
	if win.Latency.Count != win.OK {
		t.Fatalf("latency count %d != ok %d", win.Latency.Count, win.OK)
	}
	if win.End <= win.Start {
		t.Fatalf("window [%v, %v] not forward", win.Start, win.End)
	}
	rep := slo.Evaluate(slo.DefaultObjectives(), []slo.WindowInput{win})
	if rep.TotalRequests != win.OK+win.Failed {
		t.Fatalf("evaluated %d requests; window carried %d", rep.TotalRequests, win.OK+win.Failed)
	}

	// The daemon's own live report: flush cuts the partial window, so
	// the sampler's RPCs are visible without waiting for a boundary.
	live, err := SLOAt(c.Addr(0), true)
	if err != nil {
		t.Fatalf("live SLO at daemon 0: %v", err)
	}
	if live.WindowSeconds != 1 {
		t.Fatalf("daemon window %vs; the harness spawns with -slo-window 1s", live.WindowSeconds)
	}
	if live.Windows < 1 {
		t.Fatal("flush cut no window")
	}
	if live.Report.TotalRequests <= 0 {
		t.Fatalf("daemon 0 live report saw no RPCs: %+v", live.Report)
	}
}

func TestScrapeDeltaHistogramRoundTripAndWindow(t *testing.T) {
	var h obs.Histogram
	reg := obs.NewRegistry()
	reg.HistogramFunc("wire_rpc_duration_seconds", "rtt", h.Snapshot)
	fails := reg.Counter("wire_rpc_failures_total", "fails",
		obs.Label{Name: "kind", Value: "timeout"})
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	epoch := time.Unix(300, 0)
	s0 := scrapeAt(epoch, parseReg(t, reg))

	// Window traffic: 50 slow observations and 5 failures.
	for i := 0; i < 50; i++ {
		h.Observe(80 * time.Millisecond)
	}
	fails.Add(5)
	s1 := scrapeAt(epoch.Add(10*time.Second), parseReg(t, reg))

	d := s1.Delta(s0)
	hd, ok := d.Sum.Hist("wire_rpc_duration_seconds")
	if !ok {
		t.Fatalf("no histogram delta; series: %v", d.Sum.Keys)
	}
	// The scraped delta must match the in-process delta bucket-exactly:
	// the exposition's power-of-two le bounds invert losslessly.
	if hd.Count != 50 {
		t.Fatalf("window count %d; want the 50 in-window observations", hd.Count)
	}
	if q := hd.Quantile(0.5); q < 40*time.Millisecond || q > 160*time.Millisecond {
		t.Fatalf("window p50 %v; want around the 80ms in-window latency (pre-window 2ms excluded)", q)
	}

	in := d.SLOWindow(epoch)
	if in.OK != 50 || in.Failed != 5 {
		t.Fatalf("SLO window ok=%d failed=%d; want 50/5", in.OK, in.Failed)
	}
	if in.Start != 0 || in.End != 10*time.Second {
		t.Fatalf("SLO window [%v, %v]; want [0, 10s] relative to epoch", in.Start, in.End)
	}
	rep := slo.Evaluate(slo.Objectives{
		LatencyQuantile: 0.99, LatencyTarget: time.Second, Availability: 0.8,
	}, []slo.WindowInput{in})
	if rep.TotalRequests != 55 || rep.TotalFailed != 5 {
		t.Fatalf("evaluated totals %d/%d; want 55 requests, 5 failed", rep.TotalRequests, rep.TotalFailed)
	}
}
