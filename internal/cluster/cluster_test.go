package cluster

import (
	"errors"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// backends under cluster test; both must behave identically to their
// in-process forms over real sockets.
var backends = []string{"chord", "kademlia"}

// startCluster spawns an n-daemon cluster and ties its lifetime to the
// test, which fails if a daemon reports a data race on stderr (a
// race-built daemon keeps running after one).
func startCluster(t *testing.T, n int, clientOpts ...wire.Option) *Cluster {
	t.Helper()
	c, err := Start(n, clientOpts...)
	if err != nil {
		t.Fatalf("starting %d-daemon cluster: %v", n, err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(func() {
		for i := 0; i < c.Size(); i++ {
			if tail := c.StderrTail(i); strings.Contains(tail, "WARNING: DATA RACE") {
				t.Errorf("daemon %d reported a data race:\n%s", i, tail)
			}
		}
	})
	return c
}

// TestClusterSpawnFailureSaysWhy: a daemon that cannot start says why.
// One asked to listen on a port a test listener holds exits before its
// banner, and the error carries its stderr tail: the listen failure.
func TestClusterSpawnFailureSaysWhy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	bin, err := DaemonBinary()
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, err := spawn(bin, lis.Addr().String(), 1)
	if err == nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
		t.Fatalf("a daemon started on %s, which a listener holds", lis.Addr())
	}
	for _, want := range []string{"exited before announcing its address", "daemon stderr:", "randpeerd: listen", "address already in use"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("spawn failed with %q, which does not say %q", err, want)
		}
	}
}

// TestClusterConformance runs the full DHT conformance suite over a
// three-process cluster: every routing hop crosses process boundaries
// on loopback TCP, and the sampler-facing contract — including the
// metered costs the suite checks — must be exactly what the in-process
// transports deliver. The piece walk (dhttest.Pieces) runs on its small
// grid, one Provision a ring, so every scripted trial goes through the
// partitioned sampler: a walk that runs where its first peer lives
// and, on chord, a lookup tail that runs the trial's walk.
func TestClusterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			c := startCluster(t, 3, wire.WithJitterSeed(99))
			dhttest.Run(t, "cluster-"+backend, func(points []ring.Point) (dht.DHT, error) {
				return c.Provision(backend, points)
			}, dhttest.Pieces)
		})
	}
}

// ownerSeq draws k samples with a King–Saia sampler seeded from seed
// and returns the chosen owner sequence.
func ownerSeq(t *testing.T, d dht.DHT, caller dht.Peer, seed uint64, k int) []ring.Point {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	s, err := core.New(d, caller, rng, core.Config{})
	if err != nil {
		t.Fatalf("building sampler: %v", err)
	}
	out := make([]ring.Point, 0, k)
	for i := 0; i < k; i++ {
		peer, err := s.Sample()
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		out = append(out, peer.Point)
	}
	return out
}

// TestClusterDeterminism pins the cluster's end-to-end determinism:
// the same seed must draw the identical owner sequence whether the
// overlay lives in one process (simnet.Direct) or is partitioned
// across three daemons behind wire transports — for both backends.
func TestClusterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	const n, seed, k = 48, 17, 120
	rng := rand.New(rand.NewPCG(seed, seed+1))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	caller := dht.Peer{Point: points[0], Owner: 0}

	c := startCluster(t, 3, wire.WithJitterSeed(5))
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			var direct dht.DHT
			switch backend {
			case "chord":
				net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), points)
				if err != nil {
					t.Fatal(err)
				}
				direct, err = net.AsDHT(points[0])
				if err != nil {
					t.Fatal(err)
				}
			case "kademlia":
				net, err := kademlia.BuildStatic(kademlia.Config{}, simnet.NewDirect(), points)
				if err != nil {
					t.Fatal(err)
				}
				direct, err = net.AsDHT(points[0])
				if err != nil {
					t.Fatal(err)
				}
			}
			clustered, err := c.Provision(backend, points)
			if err != nil {
				t.Fatalf("provisioning cluster: %v", err)
			}
			want := ownerSeq(t, direct, caller, 41, k)
			got := ownerSeq(t, clustered, caller, 41, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: cluster drew %v, in-process drew %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestClusterReprovisionOtherBackend re-provisions live daemons, on the
// same points and without a restart, from chord to kademlia. Every
// overlay binds to its transport with one bulk registration, so the
// daemon's DeregisterAll has to drop the chord one: left in place it is
// consulted first and answers kademlia RPCs with an app error.
func TestClusterReprovisionOtherBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 3, wire.WithJitterSeed(11))
	rng := rand.New(rand.NewPCG(43, 47))
	r, err := ring.Generate(rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range backends {
		d, err := c.Provision(backend, r.Points())
		if err != nil {
			t.Fatalf("provisioning %s: %v", backend, err)
		}
		for i := 0; i < 64; i++ {
			key := ring.Point(rng.Uint64())
			peer, err := d.H(key)
			if err != nil {
				t.Fatalf("%s: h(%v): %v", backend, key, err)
			}
			if want := r.At(r.Successor(key)); peer.Point != want {
				t.Fatalf("%s: h(%v) = %v, ring owner is %v", backend, key, peer.Point, want)
			}
		}
	}
}

// TestClusterKillRestart pins the daemon lifecycle semantics: an RPC
// to a node on a killed daemon fails with ErrNodeDead within the retry
// budget, and after the daemon restarts on the same port (replaying
// its provision) the same RPC succeeds again — no routing table
// rewrites anywhere.
func TestClusterKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			c := startCluster(t, 3,
				wire.WithJitterSeed(7),
				wire.WithCallTimeout(500*time.Millisecond),
				wire.WithRetries(1, 10*time.Millisecond, 40*time.Millisecond))
			rng := rand.New(rand.NewPCG(23, 29))
			r, err := ring.Generate(rng, 24)
			if err != nil {
				t.Fatal(err)
			}
			d, err := c.Provision(backend, r.Points())
			if err != nil {
				t.Fatalf("provisioning: %v", err)
			}
			const victim = 2
			target := dht.Peer{Point: c.Owned(victim)[0]}
			if _, err := d.Next(target); err != nil {
				t.Fatalf("next(%v) before kill: %v", target.Point, err)
			}
			if err := c.Kill(victim); err != nil {
				t.Fatalf("killing daemon %d: %v", victim, err)
			}
			if _, err := d.Next(target); !errors.Is(err, simnet.ErrNodeDead) {
				t.Fatalf("next(%v) with daemon %d down: got %v, want ErrNodeDead", target.Point, victim, err)
			}
			if err := c.Restart(victim); err != nil {
				t.Fatalf("restarting daemon %d: %v", victim, err)
			}
			// The daemon is healthy and re-provisioned; the next lookup
			// must succeed within the client's own retry budget.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, err := d.Next(target); err == nil {
					break
				} else if time.Now().After(deadline) {
					t.Fatalf("next(%v) still failing after restart: %v", target.Point, err)
				}
				time.Sleep(50 * time.Millisecond)
			}
		})
	}
}

// TestClusterControlPlane exercises the daemon's own control API:
// daemon-initiated lookups report sensible owners and costs, sampling
// draws members, and the metrics endpoint reflects the provisioned
// state and served traffic.
func TestClusterControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 3, wire.WithJitterSeed(3))
	rng := rand.New(rand.NewPCG(31, 37))
	r, err := ring.Generate(rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	if _, err := c.Provision("chord", points); err != nil {
		t.Fatalf("provisioning: %v", err)
	}
	members := make(map[ring.Point]bool, len(points))
	for _, p := range points {
		members[p] = true
	}

	key := ring.Point(rng.Uint64())
	look, err := LookupAt(c.Addr(0), key)
	if err != nil {
		t.Fatalf("lookup at daemon 0: %v", err)
	}
	if want := r.At(r.Successor(key)); ring.Point(look.Owner) != want {
		t.Fatalf("daemon lookup(%v) = %v, want %v", key, look.Owner, want)
	}
	if look.Calls < 1 {
		t.Fatalf("daemon lookup reported %d calls, want >= 1", look.Calls)
	}

	first := c.Owned(0)[0]
	succ, err := NextAt(c.Addr(0), first)
	if err != nil {
		t.Fatalf("next at daemon 0: %v", err)
	}
	if want := r.At((r.Successor(first) + 1) % len(points)); succ != want {
		t.Fatalf("daemon next(%v) = %v, want %v", first, succ, want)
	}

	calls0, walks0, tails0 := fleetTally(t, c)
	samp, err := SampleAt(c.Addr(1), 8, 101)
	if err != nil {
		t.Fatalf("sample at daemon 1: %v", err)
	}
	calls1, walks1, tails1 := fleetTally(t, c)
	if len(samp.Points) != 8 {
		t.Fatalf("sample returned %d points, want 8", len(samp.Points))
	}
	for _, p := range samp.Points {
		if !members[ring.Point(p)] {
			t.Fatalf("sampled %v is not a member", p)
		}
	}
	if samp.Trials < 8 || samp.Pruned < 0 || samp.Pruned > samp.Trials-8 {
		t.Fatalf("sample effort out of range: trials=%d steps=%d pruned=%d", samp.Trials, samp.Steps, samp.Pruned)
	}
	// The fleet's cost decomposes exactly: the calls an in-process
	// replay of the request charges (estimate, h lookups, one per next
	// step) plus one round trip per walk sent to another process on its
	// own — every walk served but those a route tail ran.
	replay := replaySample(t, "chord", points, c.Owned(1)[0], 101, 8)
	if want := replay.Calls + walks1 - walks0 - (tails1 - tails0); calls1-calls0 != want {
		t.Fatalf("fleet charged %d calls for the request; the in-process replay charged %d, %d walks were delegated and route tails ran %d of them",
			calls1-calls0, replay.Calls, walks1-walks0, tails1-tails0)
	}

	m, err := MetricsAt(c.Addr(0))
	if err != nil {
		t.Fatalf("metrics at daemon 0: %v", err)
	}
	if m.Backend != "chord" {
		t.Fatalf("metrics backend = %q, want chord", m.Backend)
	}
	if len(m.Owned) != len(c.Owned(0)) {
		t.Fatalf("metrics owned = %d points, want %d", len(m.Owned), len(c.Owned(0)))
	}
	if m.ServedCalls < 1 {
		t.Fatalf("metrics served = %d, want >= 1 after cross-daemon lookups", m.ServedCalls)
	}
	if m.Calls < 1 {
		t.Fatalf("metrics calls = %d, want >= 1 (daemon 0 made outgoing lookup hops)", m.Calls)
	}

	// A join through daemon 2, bootstrapped at a point daemon 0 hosts:
	// daemon 2 hosts the new node from then on, whose successor is the
	// one the ring gives it, and a second join of the same point fails.
	fresh := ring.Point(rng.Uint64())
	for members[fresh] {
		fresh++
	}
	if err := JoinAt(c.Addr(2), fresh, first); err != nil {
		t.Fatalf("join of %v at daemon 2: %v", fresh, err)
	}
	if succ, err := NextAt(c.Addr(2), fresh); err != nil || succ != r.At(r.Successor(fresh)) {
		t.Fatalf("after the join, daemon 2 next(%v) = %v (err %v), want %v", fresh, succ, err, r.At(r.Successor(fresh)))
	}
	m2, err := MetricsAt(c.Addr(2))
	if err != nil {
		t.Fatalf("metrics at daemon 2: %v", err)
	}
	if !slices.Contains(m2.Owned, uint64(fresh)) {
		t.Fatalf("daemon 2 owns %v after the join, not %v", m2.Owned, fresh)
	}
	if err := JoinAt(c.Addr(2), fresh, first); err == nil {
		t.Fatalf("a second join of %v succeeded", fresh)
	}
}

// fleetTally sums the calls every process's meter charged (the RPC
// histogram's count), the walks every process served and those among
// them its route tails ran, the client's included.
func fleetTally(t *testing.T, c *Cluster) (calls, walks, tailWalks int64) {
	t.Helper()
	exps, err := c.ScrapeAll()
	if err != nil {
		t.Fatalf("scraping cluster: %v", err)
	}
	reg, err := c.ClientRegistry()
	if err != nil {
		t.Fatal(err)
	}
	exps = append(exps, renderRegistry(t, reg))
	calls = int64(SumAcross(exps, "wire_rpc_duration_seconds_count", nil))
	walks = int64(SumAcross(exps, "overlay_walks_served_total", nil))
	tailWalks = int64(SumAcross(exps, "overlay_tail_walks_served_total", nil))
	return calls, walks, tailWalks
}

// replaySample runs a /v1/sample request in one process: the same
// overlay over simnet.Direct, viewed from the daemon's first owned
// point, and the daemon's sampler seeding. Calls is what it charged.
func replaySample(t *testing.T, backend string, points []ring.Point, self ring.Point, seed uint64, count int) SampleResponse {
	t.Helper()
	net, err := overlays.Build(backend, overlays.Config{}, simnet.NewDirect(), points, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := net.AsDHT(self)
	if err != nil {
		t.Fatal(err)
	}
	before := view.Meter().Snapshot()
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	s, err := core.New(view, view.Self(), rng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out SampleResponse
	for i := 0; i < count; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatalf("replayed sample %d: %v", i, err)
		}
		out.Points = append(out.Points, uint64(p.Point))
	}
	effort := s.Stats()
	out.Calls = view.Meter().Snapshot().Sub(before).Calls
	out.Trials, out.Steps, out.Pruned = effort.Trials, effort.Steps, effort.Pruned
	return out
}

// TestClusterSamplesMatchInProcess is the daemons' differential check:
// /v1/sample requests spread over the three daemons draw the points,
// trials, steps and pruned counts an in-process replay of the same
// requests draws — whichever process ran each trial's walk. The served
// walk counters show the walks did run elsewhere: on the daemons and
// in the client process hosting points[0].
func TestClusterSamplesMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	const n, requests, count = 256, 300, 3
	r, err := ring.Generate(rand.New(rand.NewPCG(61, 67)), n)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	c := startCluster(t, 3, wire.WithJitterSeed(23))
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if _, err := c.Provision(backend, points); err != nil {
				t.Fatalf("provisioning: %v", err)
			}
			for i := 0; i < requests; i++ {
				d, seed := i%c.Size(), uint64(7000+i)
				got, err := SampleAt(c.Addr(d), count, seed)
				if err != nil {
					t.Fatalf("request %d at daemon %d: %v", i, d, err)
				}
				want := replaySample(t, backend, points, c.Owned(d)[0], seed, count)
				if !slices.Equal(got.Points, want.Points) || got.Trials != want.Trials ||
					got.Steps != want.Steps || got.Pruned != want.Pruned {
					t.Fatalf("request %d at daemon %d: drew %v (trials %d, steps %d, pruned %d); in process %v (%d, %d, %d)",
						i, d, got.Points, got.Trials, got.Steps, got.Pruned,
						want.Points, want.Trials, want.Steps, want.Pruned)
				}
			}
			exps, err := c.ScrapeAll()
			if err != nil {
				t.Fatalf("scraping cluster: %v", err)
			}
			reg, err := c.ClientRegistry()
			if err != nil {
				t.Fatal(err)
			}
			daemons := SumAcross(exps, "overlay_walks_served_total", nil)
			client, _ := renderRegistry(t, reg).Value("overlay_walks_served_total", nil)
			if daemons < 1 || client < 1 {
				t.Fatalf("walks served: %v by the daemons, %v by the client; want some on each side of a process boundary",
					daemons, client)
			}
		})
	}
}

// TestClusterProvisionRejections pins the status codes of a refused
// /v1/provision: a backend name the builder does not know is the
// caller's mistake (400), a membership no overlay can be built over is
// a failed build (500), and neither leaves the daemon unusable.
func TestClusterProvisionRejections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	c := startCluster(t, 1)
	r, err := ring.Generate(rand.New(rand.NewPCG(43, 47)), 8)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]uint64, r.Len())
	for i := range all {
		all[i] = uint64(r.At(i))
	}
	dup := append(append([]uint64(nil), all...), all[0])
	for _, tc := range []struct {
		name   string
		req    ProvisionRequest
		status string
	}{
		{"unknown backend", ProvisionRequest{Backend: "pastry", Points: all, Owned: all}, "status 400"},
		{"empty membership", ProvisionRequest{Backend: "chord"}, "status 400"},
		{"duplicate points, chord", ProvisionRequest{Backend: "chord", Points: dup, Owned: all}, "status 500"},
		{"duplicate points, kademlia", ProvisionRequest{Backend: "kademlia", Points: dup, Owned: all}, "status 500"},
	} {
		err := ProvisionDaemon(c.Addr(0), tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.status) {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.status)
		}
	}
	if _, err := LookupAt(c.Addr(0), r.At(0)); err == nil {
		t.Error("lookup served by a daemon whose last provision was refused")
	}
	if err := ProvisionDaemon(c.Addr(0), ProvisionRequest{Backend: "kademlia", Points: all, Owned: all}); err != nil {
		t.Fatalf("provisioning after refusals: %v", err)
	}
	look, err := LookupAt(c.Addr(0), r.At(3))
	if err != nil || ring.Point(look.Owner) != r.At(3) {
		t.Errorf("lookup after re-provision = %v, %v; want owner %v", look.Owner, err, r.At(3))
	}
}
