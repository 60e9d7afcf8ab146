package cluster

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// renderRegistry renders a registry's exposition and runs it through
// the same strict checker the daemon scrapes get.
func renderRegistry(t *testing.T, r *obs.Registry) *obstest.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("rendering client registry: %v", err)
	}
	e, err := obstest.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("client exposition invalid: %v\n%s", err, buf.String())
	}
	return e
}

// TestClusterMetricsScrape is the fleet-level observability smoke: it
// drives client lookups across a 3-daemon cluster, scrapes /metrics
// from every daemon, validates each exposition with the obstest
// checker, and reconciles the server-side counters against the
// client's own registry — the wire RPC histogram count must equal the
// client meter's charged calls, the RPCs the daemons served must add up
// to the attempts the client sent, and every process's meter must grow
// by exactly its own work plus the steps of the walks it served.
func TestClusterMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 3, wire.WithJitterSeed(13))
	rng := rand.New(rand.NewPCG(43, 47))
	r, err := ring.Generate(rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Provision("chord", r.Points())
	if err != nil {
		t.Fatalf("provisioning: %v", err)
	}
	const lookups = 32
	for i := 0; i < lookups; i++ {
		if _, err := d.H(ring.Point(rng.Uint64())); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}

	exps, err := c.ScrapeAll()
	if err != nil {
		t.Fatalf("scraping cluster: %v", err)
	}
	for i, e := range exps {
		if v := e.Sum("randpeerd_build_info", map[string]string{"version": "test"}); v != 1 {
			t.Errorf("daemon %d: randpeerd_build_info{version=\"test\"} = %v, want 1", i, v)
		}
		if up, ok := e.Value("randpeerd_uptime_seconds", nil); !ok || up <= 0 {
			t.Errorf("daemon %d: uptime = %v, %v; want > 0", i, up, ok)
		}
		if owned, ok := e.Value("randpeerd_owned_nodes", nil); !ok || int(owned) != len(c.Owned(i)) {
			t.Errorf("daemon %d: owned_nodes = %v, want %d", i, owned, len(c.Owned(i)))
		}
		if served := e.Sum("wire_rpc_served_total", nil); served < 1 {
			t.Errorf("daemon %d: served %v RPCs, want >= 1 after cross-daemon lookups", i, served)
		}
	}

	reg, err := c.ClientRegistry()
	if err != nil {
		t.Fatal(err)
	}
	client := renderRegistry(t, reg)

	// The client histogram records exactly the calls the meter charged.
	meterCalls := float64(c.Client().Meter().Snapshot().Calls)
	if got, ok := client.Value("wire_rpc_duration_seconds_count", nil); !ok || got != meterCalls {
		t.Errorf("client histogram count = %v, %v; meter charged %v calls", got, ok, meterCalls)
	}
	if local := client.Sum("wire_rpc_calls_total", map[string]string{"dest": "local"}); local != 0 {
		t.Errorf("client made %v local calls; every overlay node lives on a daemon", local)
	}

	// Fleet reconciliation: only the client originated RPCs, so the
	// inbound RPCs the daemons served must add up to the network
	// attempts the client sent.
	attempts, ok := client.Value("wire_rpc_attempts_total", nil)
	if !ok {
		t.Fatal("client exposition missing wire_rpc_attempts_total")
	}
	if served := SumAcross(exps, "wire_rpc_served_total", nil); served != attempts {
		t.Errorf("daemons served %v RPCs, client attempted %v", served, attempts)
	}

	// The build identity on /healthz matches the stamped exposition.
	h, err := HealthAt(c.Addr(0))
	if err != nil {
		t.Fatalf("health at daemon 0: %v", err)
	}
	if h.Status != "ok" || h.Version != "test" {
		t.Errorf("healthz = %+v, want status ok and version test", h)
	}

	// Connection reuse, read off the scrapes. One lap of next() reaches
	// every daemon, so the client has dialed whatever it will ever need;
	// a thousand further calls must not dial again, and a reconnect storm
	// would show as wire_conn_dials_total climbing with the call count.
	cur := r.At(0)
	walk := func(steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			p, err := d.Next(dht.Peer{Point: cur})
			if err != nil {
				t.Fatalf("next from %v: %v", cur, err)
			}
			cur = p.Point
		}
	}
	walk(r.Len())
	dials, _ := renderRegistry(t, reg).Value("wire_conn_dials_total", nil)
	if dials < 1 || dials > float64(c.Size()) {
		t.Fatalf("client dialed %v times for sequential calls to %d daemons", dials, c.Size())
	}
	calls := c.Client().Meter().Snapshot().Calls
	walk(1000)
	// Daemon-originated RPCs too: each request looks up and walks the
	// overlay from the daemon that serves it, and a trial's walk runs
	// at the process hosting its first peer — the client's points[0]
	// among them — on that process's own transport.
	exps, err = c.ScrapeAll()
	if err != nil {
		t.Fatalf("scraping cluster: %v", err)
	}
	const stepsServed = "overlay_walk_steps_served_total"
	clientSteps, _ := renderRegistry(t, reg).Value(stepsServed, nil)
	own := make([]int64, c.Size())
	for i := 0; i < 4*c.Size(); i++ {
		resp, err := SampleAt(c.Addr(i%c.Size()), 2, uint64(100+i))
		if err != nil {
			t.Fatalf("sample at daemon %d: %v", i%c.Size(), err)
		}
		own[i%c.Size()] += resp.Calls
	}
	client = renderRegistry(t, reg)
	// Physical accounting: a process's meter charges the calls its own
	// transport issued, its own work plus the steps of the walks it
	// served. The client's work is the 1000 steps of its own walk.
	served, _ := client.Value(stepsServed, nil)
	if got := c.Client().Meter().Snapshot().Calls - calls; got != 1000+int64(served-clientSteps) {
		t.Fatalf("walk charged %d calls, want 1000 plus the %v steps of the walks the client served", got, served-clientSteps)
	}
	if after, _ := client.Value("wire_conn_dials_total", nil); after != dials {
		t.Errorf("client dials went %v -> %v across 1000 further calls; want flat", dials, after)
	}
	// The same identity on every daemon: its meter (the RPC histogram's
	// count) grew by the calls its responses reported, the requests ran
	// one at a time, plus the steps of the walks it served and the hops
	// after the first of the route tails it served.
	before := exps
	exps, err = c.ScrapeAll()
	if err != nil {
		t.Fatalf("scraping cluster: %v", err)
	}
	const charged = "wire_rpc_duration_seconds_count"
	var fleetWalks, fleetTailWalks, fleetRoutes float64
	for i, e := range exps {
		grew := e.Sum(charged, nil) - before[i].Sum(charged, nil)
		steps := e.Sum(stepsServed, nil) - before[i].Sum(stepsServed, nil)
		hops := e.Sum("overlay_route_hops_served_total", nil) - before[i].Sum("overlay_route_hops_served_total", nil)
		if grew != float64(own[i])+steps+hops {
			t.Errorf("daemon %d: meter grew by %v calls; its responses reported %d, it served %v walk steps and %v route hops",
				i, grew, own[i], steps, hops)
		}
		fleetWalks += e.Sum("overlay_walks_served_total", nil) - before[i].Sum("overlay_walks_served_total", nil)
		fleetTailWalks += e.Sum("overlay_tail_walks_served_total", nil) - before[i].Sum("overlay_tail_walks_served_total", nil)
		fleetRoutes += e.Sum("overlay_routes_served_total", nil) - before[i].Sum("overlay_routes_served_total", nil)
	}
	if fleetWalks < 1 {
		t.Error("no process served a walk; the daemons' contiguous ranges should make most walks start elsewhere")
	}
	if fleetRoutes < 1 {
		t.Error("no process served a route tail; a lookup closing in on another daemon's range should hand it its hops")
	}
	if fleetTailWalks < 1 || fleetTailWalks > fleetWalks {
		t.Errorf("route tails ran %v of the %v walks served; a tail ending in the range that holds h(s) should run the trial's walk",
			fleetTailWalks, fleetWalks)
	}
	in := map[string]string{"dir": "in"}
	out := map[string]string{"dir": "out"}
	for i, e := range exps {
		// A daemon serves one sample request at a time, so one connection
		// per peer process (the other daemons and the client) is all its
		// remote calls can ever need.
		remote := e.Sum("wire_rpc_calls_total", map[string]string{"dest": "remote"})
		dialed, _ := e.Value("wire_conn_dials_total", nil)
		if remote < 50 || dialed > float64(c.Size()) || e.Sum("wire_conns_open", out) != dialed {
			t.Errorf("daemon %d: %v remote calls over %v dials with %v connections open; want <= %d dials, all still open",
				i, remote, dialed, e.Sum("wire_conns_open", out), c.Size())
		}
	}
	// Every open outbound connection is some process's inbound one.
	opened := SumAcross(exps, "wire_conns_open", out) + client.Sum("wire_conns_open", out)
	accepted := SumAcross(exps, "wire_conns_open", in) + client.Sum("wire_conns_open", in)
	if opened != accepted || opened < dials {
		t.Errorf("fleet holds %v outbound connections open against %v inbound", opened, accepted)
	}
}

// TestClusterTrace pins the distributed tracing path: a daemon-side
// traced lookup reports hops that reconcile with its meter, and the
// spans the other daemons retained under the same trace id account for
// exactly the remote hops the trace crossed.
func TestClusterTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 3, wire.WithJitterSeed(19))
	rng := rand.New(rand.NewPCG(53, 59))
	r, err := ring.Generate(rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Provision("chord", r.Points()); err != nil {
		t.Fatalf("provisioning: %v", err)
	}

	key := ring.Point(rng.Uint64())
	resp, err := TraceAt(c.Addr(0), key)
	if err != nil {
		t.Fatalf("traced lookup at daemon 0: %v", err)
	}
	if resp.TraceID == 0 {
		t.Fatal("traced lookup returned trace id 0")
	}
	if want := r.At(r.Successor(key)); ring.Point(resp.Owner) != want {
		t.Fatalf("traced lookup(%v) = %v, want %v", key, resp.Owner, want)
	}

	// Hop-for-call reconciliation on the originating daemon.
	var okHops, remoteHops int
	for i, h := range resp.Hops {
		if h.Index != i {
			t.Fatalf("hop %d has index %d", i, h.Index)
		}
		if h.Outcome == "ok" {
			okHops++
		}
		if h.Remote {
			remoteHops++
			if h.Attempts < 1 {
				t.Errorf("remote hop %d reports %d attempts", i, h.Attempts)
			}
		}
	}
	if int64(okHops) != resp.Calls {
		t.Fatalf("trace has %d ok hops, daemon meter charged %d calls", okHops, resp.Calls)
	}

	// Every remote hop was served by some daemon, which retained a span
	// under the trace id; local hops never leave the process.
	var spans int
	for i := 0; i < c.Size(); i++ {
		sr, err := TraceSpansAt(c.Addr(i), resp.TraceID)
		if err != nil {
			t.Fatalf("spans at daemon %d: %v", i, err)
		}
		if sr.TraceID != resp.TraceID {
			t.Fatalf("daemon %d echoed trace id %d, want %d", i, sr.TraceID, resp.TraceID)
		}
		for _, s := range sr.Spans {
			if !s.Remote {
				t.Errorf("daemon %d retained a non-remote span: %+v", i, s)
			}
		}
		spans += len(sr.Spans)
	}
	if spans != remoteHops {
		t.Fatalf("daemons retained %d spans, trace crossed %d remote hops", spans, remoteHops)
	}
	if remoteHops == 0 {
		t.Fatal("trace never left daemon 0; partition should force remote hops")
	}
}

// TestTailBufferBounds pins the stderr-capture ring: it keeps only the
// most recent stderrTailCap bytes, and the tail survives interleaved
// concurrent writes without racing readers.
func TestTailBufferBounds(t *testing.T) {
	t.Parallel()
	tb := newTailBuffer(16)
	if _, err := tb.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if got := tb.String(); got != "0123456789" {
		t.Fatalf("tail = %q before overflow", got)
	}
	if _, err := tb.Write([]byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	if got := tb.String(); got != "456789abcdefghij" {
		t.Fatalf("tail = %q (len %d), want the most recent <= 16 bytes", got, len(got))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tb.Write([]byte("x"))
				_ = tb.String()
			}
		}()
	}
	wg.Wait()
	if got := tb.String(); len(got) > 16 {
		t.Fatalf("tail grew past cap: %d bytes", len(got))
	}
}
