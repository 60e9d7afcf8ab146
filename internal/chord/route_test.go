package chord

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// fleet is a static ring split across two wire transports on loopback:
// the client process hosts the points clientOwns selects, the server
// process the rest, and each routes the other's points to it.
type fleet struct {
	client, server *wire.Transport
	cnet, snet     *Network
}

func newFleet(t *testing.T, points []ring.Point, clientOwns func(ring.Point) bool, opts ...wire.Option) *fleet {
	t.Helper()
	f := &fleet{client: wire.NewTransport(opts...), server: wire.NewTransport(opts...)}
	for _, tr := range []*wire.Transport{f.client, f.server} {
		if err := tr.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
	}
	for _, p := range points {
		if clientOwns(p) {
			f.server.SetRoute(simnet.NodeID(p), f.client.Addr())
		} else {
			f.client.SetRoute(simnet.NodeID(p), f.server.Addr())
		}
	}
	var err error
	if f.cnet, err = BuildStaticPartition(Config{}, f.client, points, clientOwns); err != nil {
		t.Fatal(err)
	}
	if f.snet, err = BuildStaticPartition(Config{}, f.server, points, func(p ring.Point) bool { return !clientOwns(p) }); err != nil {
		t.Fatal(err)
	}
	return f
}

func testRing(t testing.TB, seed uint64, n int) *ring.Ring {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed+1)), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMalformedHopReplyFailsTheHop: a reply no correct node sends — a
// next-hop answer naming more candidates than it can hold (it used to
// panic the caller with "slice bounds out of range [:9] with length
// 4"), or a route answer with a hop count outside [1, MaxHops sent] —
// fails the hop like a failed call. A lookup through the liar falls
// back to the next candidate and never returns a wrong owner; a
// bootstrap whose only reply is malformed aborts the lookup.
func TestMalformedHopReplyFailsTheHop(t *testing.T) {
	t.Parallel()
	r := testRing(t, 91, 16)
	points := r.Points()
	caller := points[0]
	for _, tc := range []struct {
		name  string
		forge func(msg simnet.Message) simnet.Message
	}{
		{"next hop N 9", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return &nextHopResp{N: 9}
			}
			return nil
		}},
		{"next hop N -1", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return &nextHopResp{N: -1}
			}
			return nil
		}},
		{"next hop of another type", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return succListResp{}
			}
			return nil
		}},
		{"route of no hops", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{Done: true, Succ: caller}}
			}
			return nil
		}},
		{"route past its budget", func(msg simnet.Message) simnet.Message {
			if m, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{Done: true, Succ: caller}, Hops: m.MaxHops + 1}
			}
			return nil
		}},
		{"route N 9", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{N: 9}, Hops: 1}
			}
			return nil
		}},
		{"route failed with no candidate", func(msg simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Hops: 1, Failed: "dead"}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := newFleet(t, points, func(p ring.Point) bool { return p == caller }, wire.WithRetries(0, 0, 0))
			// The liar is the caller's farthest finger, the first hop of
			// about half its lookups.
			liar, ok := Node{f.cnet, 0}.Finger(idBits - 1)
			if !ok {
				t.Fatal("caller has no top finger")
			}
			var mu sync.Mutex
			forged := 0
			f.server.SetInterceptor(func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
				if ring.Point(to) != liar {
					return resp, err
				}
				if lie := tc.forge(msg); lie != nil {
					mu.Lock()
					forged++
					mu.Unlock()
					return lie, nil
				}
				return resp, err
			})
			if tc.forge(nextHopReq{}) != nil {
				if _, err := f.cnet.LookupVia(caller, liar, liar+1); !errors.Is(err, ErrLookupAborted) {
					t.Errorf("LookupVia through the liar = %v, want ErrLookupAborted", err)
				}
			}
			rng := rand.New(rand.NewPCG(5, 7))
			resolved := 0
			for i := 0; i < 64; i++ {
				key := ring.Point(rng.Uint64())
				want := r.At(r.Successor(key))
				for name, lookup := range map[string]func(from, key ring.Point) (ring.Point, error){
					"Lookup": f.cnet.Lookup, "OwnerTails": f.cnet.OwnerTails,
				} {
					got, err := lookup(caller, key)
					switch {
					case err == nil && got != want:
						t.Fatalf("%s(%v) = %v, want %v", name, key, got, want)
					case err == nil:
						resolved++
					case !errors.Is(err, ErrLookupAborted):
						t.Fatalf("%s(%v): %v, want ErrLookupAborted", name, key, err)
					}
				}
			}
			if forged == 0 || resolved == 0 {
				t.Fatalf("%d replies forged, %d lookups resolved; the test covers nothing", forged, resolved)
			}
			for k := 0; k < idBits; k++ {
				if p, ok := (Node{f.cnet, 0}).Finger(k); ok && p == liar {
					t.Fatalf("caller's finger %d still points at the liar after its malformed replies", k)
				}
			}
		})
	}
}

// TestRouteTailFailuresMatchReplay: a hop that fails at a route tail's
// process goes back reported as failed, and the initiator carries on as
// an in-process lookup does. Across many lookups from one caller, over
// a ring split between two processes, every owner and every error
// class, the caller's fingers afterwards and the calls and failures
// (summed over both processes) equal an in-process replay's. The
// failing node is hosted by the tail's process: crashed there, dead in
// every fault plan, or failed by the interceptor armed there.
func TestRouteTailFailuresMatchReplay(t *testing.T) {
	t.Parallel()
	r := testRing(t, 97, 64)
	points := r.Points()
	caller := points[0]
	clientOwns := func(p ring.Point) bool { i, _ := r.Rank(p); return i < 8 }
	const lookups = 400
	// The failing node: the one most lookups reach among those the
	// caller's table never names, so only a tail (or a backup after a
	// failed one) reaches it.
	ref, err := BuildStatic(Config{}, simnet.NewDirect(), points)
	if err != nil {
		t.Fatal(err)
	}
	reached := make(map[ring.Point]int)
	ref.Transport().(*simnet.Direct).SetInterceptor(func(_, to simnet.NodeID, _, resp simnet.Message, err error) (simnet.Message, error) {
		reached[ring.Point(to)]++
		return resp, err
	})
	keys := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < lookups; i++ {
		if _, err := ref.Lookup(caller, ring.Point(keys.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	neighbors := ref.Neighbors(0)
	var x ring.Point
	for p, c := range reached {
		if !clientOwns(p) && !slices.Contains(neighbors, p) && (c > reached[x] || c == reached[x] && p < x) {
			x = p
		}
	}
	failX := func(_, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
		if ring.Point(to) == x {
			return nil, simnet.ErrDropped
		}
		return resp, err
	}
	for _, tc := range []struct {
		name string
		arm  func(f *fleet, replay *Network, replayFaults *simnet.Faults)
	}{
		{"crashed", func(f *fleet, replay *Network, _ *simnet.Faults) {
			mustCrash(t, f.snet, x)
			mustCrash(t, replay, x)
		}},
		{"dead", func(f *fleet, _ *Network, replayFaults *simnet.Faults) {
			f.client.Faults.SetDead(simnet.NodeID(x), true)
			f.server.Faults.SetDead(simnet.NodeID(x), true)
			replayFaults.SetDead(simnet.NodeID(x), true)
		}},
		{"interceptor", func(f *fleet, replay *Network, _ *simnet.Faults) {
			f.server.SetInterceptor(failX)
			replay.Transport().(*simnet.Direct).SetInterceptor(failX)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cf, sf, rf := simnet.NewFaults(nil), simnet.NewFaults(nil), simnet.NewFaults(nil)
			f := newFleet(t, points, clientOwns, wire.WithRetries(0, 0, 0))
			f.client.Faults, f.server.Faults = cf, sf
			replay, err := BuildStatic(Config{}, simnet.NewDirect(simnet.WithFaults(rf)), points)
			if err != nil {
				t.Fatal(err)
			}
			tc.arm(f, replay, rf)
			rng := rand.New(rand.NewPCG(11, 13))
			failed := 0
			for i := 0; i < lookups; i++ {
				key := ring.Point(rng.Uint64())
				got, gerr := f.cnet.OwnerTails(caller, key)
				want, werr := replay.Lookup(caller, key)
				if got != want || simnet.ErrorClass(gerr) != simnet.ErrorClass(werr) || errors.Is(gerr, ErrLookupAborted) != errors.Is(werr, ErrLookupAborted) {
					t.Fatalf("lookup %d of %v: fleet %v (%v), replay %v (%v)", i, key, got, gerr, want, werr)
				}
				if werr != nil {
					failed++
				}
			}
			for k := 0; k < idBits; k++ {
				g, gok := Node{f.cnet, 0}.Finger(k)
				w, wok := Node{replay, 0}.Finger(k)
				if g != w || gok != wok {
					t.Fatalf("caller's finger %d: fleet %v (%t), replay %v (%t)", k, g, gok, w, wok)
				}
			}
			c, s, rp := f.client.Meter().Snapshot(), f.server.Meter().Snapshot(), replay.Meter().Snapshot()
			if c.Calls+s.Calls != rp.Calls || c.Failures+s.Failures != rp.Failures || rp.Failures == 0 {
				t.Fatalf("fleet made %d calls (%d failed), replay %d (%d failed)", c.Calls+s.Calls, c.Failures+s.Failures, rp.Calls, rp.Failures)
			}
			served := f.snet.Served()
			if served.Routes == 0 || served.RouteHops != s.Calls {
				t.Fatalf("server served %+v over %d calls of its own", served, s.Calls)
			}
			if tc.name != "crashed" && s.Failures == 0 {
				t.Fatal("no hop failed at the tail's process")
			}
			t.Logf("%d of %d lookups aborted; %d hops failed at the client, %d at the server", failed, lookups, c.Failures, s.Failures)
		})
	}
}

func mustCrash(t *testing.T, n *Network, id ring.Point) {
	t.Helper()
	if err := n.Crash(id); err != nil {
		t.Fatal(err)
	}
}

// FuzzServeRoute sends routeReqs with a fuzzed key, hop budget, sender
// and target to a process hosting a contiguous range of a small static
// ring. The serving side must never panic, must refuse a budget below
// one hop, must run no more hops than the budget or its own
// MaxLookupHops, must call only nodes it hosts (its transport's remote
// call counter stays put; every other point routes to a port nobody
// listens on), must send each hop from the sender, and must answer what
// the in-process route gives after the same number of hops, stopping
// only where a tail stops.
func FuzzServeRoute(f *testing.F) {
	const n, lo, hi = 24, 4, 18
	cfg := Config{MaxLookupHops: 5}
	r := testRing(f, 101, n)
	points := r.Points()
	hosted := func(p ring.Point) bool { i, _ := r.Rank(p); return i >= lo && i < hi }
	server := wire.NewTransport(wire.WithRetries(0, 0, 0))
	f.Cleanup(func() { server.Close() })
	for _, p := range points {
		if !hosted(p) {
			server.SetRoute(simnet.NodeID(p), "127.0.0.1:1")
		}
	}
	snet, err := BuildStaticPartition(cfg, server, points, hosted)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := BuildStatic(cfg, simnet.NewDirect(), points)
	if err != nil {
		f.Fatal(err)
	}
	reg := obs.NewRegistry()
	server.RegisterMetrics(reg)
	remote := obs.Key("wire_rpc_calls_total", obs.Label{Name: "dest", Value: "remote"})
	var mu sync.Mutex
	var senders []simnet.NodeID
	server.SetInterceptor(func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
		if _, ok := msg.(nextHopReq); ok {
			mu.Lock()
			senders = append(senders, from)
			mu.Unlock()
		}
		return resp, err
	})
	f.Add(uint64(points[10]), 5, uint64(points[0]), uint8(0))
	f.Add(uint64(points[3]), 1<<40, uint64(7), uint8(3))
	f.Add(uint64(points[20])+1, 2, uint64(1)<<63, uint8(13))
	f.Add(uint64(points[hi-1]), 1, uint64(3), uint8(0))
	f.Add(^uint64(0), 0, uint64(0), uint8(255))
	f.Add(uint64(12345), -3, uint64(9), uint8(6))
	f.Fuzz(func(t *testing.T, key uint64, maxHops int, sender uint64, target uint8) {
		to := r.At(lo + int(target)%(hi-lo))
		mu.Lock()
		senders = senders[:0]
		mu.Unlock()
		before, _ := reg.Snapshot().Value(remote)
		servedBefore := snet.Served()
		raw, err := server.Call(simnet.NodeID(sender), simnet.NodeID(to), routeReq{Key: ring.Point(key), MaxHops: maxHops})
		if after, _ := reg.Snapshot().Value(remote); after != before {
			t.Fatalf("serving a route made %v remote calls", after-before)
		}
		if maxHops < 1 {
			if err == nil {
				t.Fatalf("a budget of %d hops was served", maxHops)
			}
			return
		}
		if err != nil {
			t.Fatalf("route toward %v from %v: %v", key, to, err)
		}
		got := raw.(routeResp)
		limit := min(maxHops, cfg.MaxLookupHops)
		if got.Hops < 1 || got.Hops > limit || got.Failed != "" {
			t.Fatalf("served %+v within a budget of %d", got, limit)
		}
		mu.Lock()
		sent := append([]simnet.NodeID(nil), senders...)
		mu.Unlock()
		if len(sent) != got.Hops-1 {
			t.Fatalf("served %d hops with %d calls", got.Hops, len(sent))
		}
		for _, from := range sent {
			if from != simnet.NodeID(sender) {
				t.Fatalf("a served hop went out from %d, not the sender %d", from, sender)
			}
		}
		if s := snet.Served(); s.Routes != servedBefore.Routes+1 || s.RouteHops != servedBefore.RouteHops+int64(got.Hops-1) {
			t.Fatalf("served counters went %+v -> %+v over a route of %d hops", servedBefore, s, got.Hops)
		}
		s, _ := ref.LiveSlot(to)
		want := ref.nextHop(s, nextHopReq{Key: ring.Point(key)})
		defer func() { putNextHopResp(want) }()
		for i := 1; i < got.Hops; i++ {
			if want.Done || want.N == 0 || !hosted(want.Cands[0]) {
				t.Fatalf("served hop %d past the in-process route's stop %+v", i+1, *want)
			}
			s, _ := ref.LiveSlot(want.Cands[0])
			putNextHopResp(want)
			want = ref.nextHop(s, nextHopReq{Key: ring.Point(key)})
		}
		if got.Last != *want {
			t.Fatalf("served %+v after %d hops; in process %+v", got.Last, got.Hops, *want)
		}
		if !want.Done && want.N > 0 && got.Hops < limit && hosted(want.Cands[0]) {
			t.Fatalf("served route stopped after %d hops at %+v, a hop it hosts", got.Hops, *want)
		}
	})
}
