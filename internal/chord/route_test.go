package chord

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/overlay"
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
// 4"), a route answer with a hop count outside [1, MaxHops sent], or a
// route answer carrying a walk no correct tail runs or reports — fails
// the hop like a failed call. A lookup through the liar falls back to
// the next candidate and never returns a wrong owner; a bootstrap
// whose only reply is malformed aborts the lookup.
func TestMalformedHopReplyFailsTheHop(t *testing.T) {
	t.Parallel()
	r := testRing(t, 91, 16)
	points := r.Points()
	caller := points[0]
	derived, err := core.DeriveParams(float64(len(points)), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	walk := dht.Walk{Lambda: derived.Lambda, MaxSteps: derived.MaxSteps}
	// walked edits a true reply to a route that asked for a walk and
	// may carry one (a Done answer at least lambda past the key, within
	// the budget) into a lie about that walk.
	walked := func(lie func(m routeReq, r *routeResp)) func(msg, resp simnet.Message) simnet.Message {
		return func(msg, resp simnet.Message) simnet.Message {
			m, ok := msg.(routeReq)
			r, rok := resp.(routeResp)
			if !ok || !rok || m.Lambda == 0 || !r.Last.Done || r.Hops >= m.MaxHops || ring.Distance(m.Key, r.Last.Succ) < m.Lambda {
				return nil
			}
			r.Walk, r.WalkFailed = &overlay.WalkResp{P: r.Last.Succ, Steps: 1}, ""
			lie(m, &r)
			return r
		}
	}
	for _, tc := range []struct {
		name  string
		forge func(msg, resp simnet.Message) simnet.Message
	}{
		{"next hop N 9", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return &nextHopResp{N: 9}
			}
			return nil
		}},
		{"next hop N -1", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return &nextHopResp{N: -1}
			}
			return nil
		}},
		{"next hop of another type", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(nextHopReq); ok {
				return succListResp{}
			}
			return nil
		}},
		{"route of no hops", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{Done: true, Succ: caller}}
			}
			return nil
		}},
		{"route past its budget", func(msg, _ simnet.Message) simnet.Message {
			if m, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{Done: true, Succ: caller}, Hops: m.MaxHops + 1}
			}
			return nil
		}},
		{"route N 9", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Last: nextHopResp{N: 9}, Hops: 1}
			}
			return nil
		}},
		{"route failed with no candidate", func(msg, _ simnet.Message) simnet.Message {
			if _, ok := msg.(routeReq); ok {
				return routeResp{Hops: 1, Failed: "dead"}
			}
			return nil
		}},
		{"walk without a Done answer", walked(func(_ routeReq, r *routeResp) {
			r.Last = nextHopResp{N: 1, Cands: [maxCandidates]ring.Point{caller}}
		})},
		{"walk of -1 steps", walked(func(_ routeReq, r *routeResp) { r.Walk.Steps = -1 })},
		{"walk past MaxSteps", walked(func(m routeReq, r *routeResp) { r.Walk.Steps = m.MaxSteps + 1 })},
		{"walk accepted and pruned", walked(func(_ routeReq, r *routeResp) {
			r.Walk.Accepted, r.Walk.Pruned = true, true
		})},
		{"walk failure of no class", walked(func(_ routeReq, r *routeResp) { r.WalkFailed = "ok" })},
		{"walk failure with no walk", walked(func(_ routeReq, r *routeResp) { r.Walk, r.WalkFailed = nil, "dead" })},
		{"walk on the budget's last hop", walked(func(m routeReq, r *routeResp) { r.Hops = m.MaxHops })},
		{"walk from an owner short of lambda", walked(func(m routeReq, r *routeResp) { r.Last.Succ = m.Key })},
		{"walk with a failed route", walked(func(_ routeReq, r *routeResp) {
			r.Last, r.Failed = nextHopResp{N: 1, Cands: [maxCandidates]ring.Point{caller}}, "dead"
		})},
		{"walk nobody asked for", func(msg, resp simnet.Message) simnet.Message {
			m, ok := msg.(routeReq)
			r, rok := resp.(routeResp)
			if !ok || !rok || m.Lambda != 0 || !r.Last.Done {
				return nil
			}
			r.Walk = &overlay.WalkResp{P: r.Last.Succ, Steps: 1}
			return r
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
				if lie := tc.forge(msg, resp); lie != nil {
					mu.Lock()
					forged++
					mu.Unlock()
					return lie, nil
				}
				return resp, err
			})
			if tc.forge(nextHopReq{}, nil) != nil {
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
					"Lookup": f.cnet.Lookup,
					"OwnerWalk": func(from, key ring.Point) (ring.Point, error) {
						owner, _, err := f.cnet.OwnerWalk(from, key, dht.Walk{})
						return owner, err
					},
					"OwnerWalk with a walk": func(from, key ring.Point) (ring.Point, error) {
						owner, _, err := f.cnet.OwnerWalk(from, key, walk)
						return owner, err
					},
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
//
// Trials go the same way when a tail also runs the trial's walk, and
// that walk fails at the tail's process on its step to the failing
// node. A sampler whose tails run the walks, one whose tails only route
// (each walk hosted elsewhere a WalkReq of its own) and one over the
// replay draw the same peers, trials, steps and pruned counts and fail
// with the same error classes, both fleets' walk failures naming the
// walk. Summed over both processes, each fleet made the replay's calls
// plus one a WalkReq that went through — its WalkReqs are its walks
// served less its tail walks — and the replay's failures plus one a
// failed WalkReq.
func TestRouteTailFailuresMatchReplay(t *testing.T) {
	t.Parallel()
	r := testRing(t, 97, 64)
	points := r.Points()
	caller := points[0]
	clientOwns := func(p ring.Point) bool { i, _ := r.Rank(p); return i < 8 }
	const lookups, samples = 400, 300
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
	params, err := core.DeriveParams(float64(len(points)), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// arm fails x on a fleet and on its replay; it returns the
		// interceptor to arm at the fleet's server, if any.
		arm func(f *fleet, replay *Network, replayFaults *simnet.Faults) simnet.Interceptor
	}{
		{"crashed", func(f *fleet, replay *Network, _ *simnet.Faults) simnet.Interceptor {
			mustCrash(t, f.snet, x)
			mustCrash(t, replay, x)
			return nil
		}},
		{"dead", func(f *fleet, _ *Network, replayFaults *simnet.Faults) simnet.Interceptor {
			f.client.Faults.SetDead(simnet.NodeID(x), true)
			f.server.Faults.SetDead(simnet.NodeID(x), true)
			replayFaults.SetDead(simnet.NodeID(x), true)
			return nil
		}},
		{"interceptor", func(_ *fleet, replay *Network, _ *simnet.Faults) simnet.Interceptor {
			replay.Transport().(*simnet.Direct).SetInterceptor(failX)
			return failX
		}},
	} {
		// armed builds a fleet and its replay with x failed on both; the
		// server counts the WalkReqs it is sent and those that fail.
		type armed struct {
			*fleet
			replay              *Network
			walkReqs, walkFails atomic.Int64
		}
		arm := func(t *testing.T) *armed {
			a := &armed{fleet: newFleet(t, points, clientOwns, wire.WithRetries(0, 0, 0))}
			rf := simnet.NewFaults(nil)
			a.client.Faults, a.server.Faults = simnet.NewFaults(nil), simnet.NewFaults(nil)
			var err error
			if a.replay, err = BuildStatic(Config{}, simnet.NewDirect(simnet.WithFaults(rf)), points); err != nil {
				t.Fatal(err)
			}
			ic := tc.arm(a.fleet, a.replay, rf)
			a.server.SetInterceptor(func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
				if ic != nil {
					resp, err = ic(from, to, msg, resp, err)
				}
				if _, ok := msg.(overlay.WalkReq); ok {
					a.walkReqs.Add(1)
					if err != nil {
						a.walkFails.Add(1)
					}
				}
				return resp, err
			})
			return a
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := arm(t)
			replay := f.replay
			rng := rand.New(rand.NewPCG(11, 13))
			failed := 0
			for i := 0; i < lookups; i++ {
				key := ring.Point(rng.Uint64())
				got, _, gerr := f.cnet.OwnerWalk(caller, key, dht.Walk{})
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
		t.Run(tc.name+"/walks", func(t *testing.T) {
			t.Parallel()
			fused, unfused := arm(t), arm(t)
			replay := unfused.replay
			sampler := func(d dht.DHT) *core.Sampler {
				s, err := core.NewWithParams(d, rand.New(rand.NewPCG(17, 19)), params, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			view := func(n *Network) *overlay.DHT {
				v, err := n.AsDHT(caller)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			unfusedView, err := overlay.NewDHT(&unfused.cnet.Core, lookupOnly{unfused.cnet}, caller)
			if err != nil {
				t.Fatal(err)
			}
			fs, us, rs := sampler(view(fused.cnet)), sampler(unfusedView), sampler(view(replay))
			sameFailure := func(a, b error) bool {
				return (a == nil) == (b == nil) && errors.Is(a, ErrLookupAborted) == errors.Is(b, ErrLookupAborted) &&
					errors.Is(a, dht.ErrUnknownPeer) == errors.Is(b, dht.ErrUnknownPeer) && simnet.ErrorClass(a) == simnet.ErrorClass(b)
			}
			walkFailure := func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "core: walk from") }
			failed, fusedWalkFails := 0, 0
			for i := 0; i < samples; i++ {
				fp, ft, ferr := fs.SampleTraced()
				up, ut, uerr := us.SampleTraced()
				rp, rt, rerr := rs.SampleTraced()
				// A walk that fails at the tail's process reports its steps
				// with the route, so the fused Trace is the replay's on
				// failed samples too. A failed WalkReq is an error reply
				// with no body, so the unfused Trace is compared on
				// successes only.
				if !sameFailure(ferr, rerr) || !sameFailure(uerr, rerr) || simnet.ErrorClass(ferr) != simnet.ErrorClass(uerr) ||
					walkFailure(ferr) != walkFailure(uerr) ||
					ft != rt || ut.Trials != rt.Trials ||
					rerr == nil && (fp.Point != rp.Point || up.Point != rp.Point || ut != rt) {
					t.Fatalf("sample %d: fused %v %+v (%v), unfused %v %+v (%v), replay %v %+v (%v)",
						i, fp.Point, ft, ferr, up.Point, ut, uerr, rp.Point, rt, rerr)
				}
				if rerr != nil {
					failed++
				}
				if walkFailure(ferr) {
					fusedWalkFails++
				}
			}
			rm := replay.Meter().Snapshot()
			for _, a := range []*armed{fused, unfused} {
				c, s := a.client.Meter().Snapshot(), a.server.Meter().Snapshot()
				served := a.snet.Served()
				reqs, fails := a.walkReqs.Load(), a.walkFails.Load()
				if c.Calls+s.Calls != rm.Calls+reqs-fails || c.Failures+s.Failures != rm.Failures+fails ||
					reqs != served.Walks-served.TailWalks {
					t.Fatalf("fleet made %d calls (%d failed) with %d WalkReqs (%d failed) and served %+v; replay %d calls (%d failed)",
						c.Calls+s.Calls, c.Failures+s.Failures, reqs, a.walkFails.Load(), served, rm.Calls, rm.Failures)
				}
			}
			tails := fused.snet.Served().TailWalks
			if tails == 0 || unfused.snet.Served().TailWalks != 0 || fusedWalkFails <= int(fused.walkFails.Load()) {
				t.Fatalf("%d tail walks fused, %d unfused; %d fused walks failed, %d of them WalkReqs; the check covers no failing tail walk",
					tails, unfused.snet.Served().TailWalks, fusedWalkFails, fused.walkFails.Load())
			}
			t.Logf("%d of %d samples failed; %d walks ran with their tail, %d failed there; %d WalkReqs fused, %d unfused",
				failed, samples, tails, fusedWalkFails-int(fused.walkFails.Load()), fused.walkReqs.Load(), unfused.walkReqs.Load())
		})
	}
}

// lookupOnly is chord's router with route tails that only route: it
// asks them for no walk, so each walk hosted elsewhere is a WalkReq of
// its own, as before tails ran walks.
type lookupOnly struct{ *Network }

func (r lookupOnly) OwnerWalk(from, x ring.Point, _ dht.Walk) (ring.Point, *overlay.WalkResp, error) {
	return r.Network.OwnerWalk(from, x, dht.Walk{})
}

// TestWalkPastTwoLapsRunsFromTheCaller: a sampler whose horizon is past
// the two laps a process walks for another sends no walk, alone or
// with its lookup's tail, and samples what the in-process replay does.
func TestWalkPastTwoLapsRunsFromTheCaller(t *testing.T) {
	t.Parallel()
	r := testRing(t, 97, 64)
	points := r.Points()
	f := newFleet(t, points, func(p ring.Point) bool { i, _ := r.Rank(p); return i < 8 })
	replay, err := BuildStatic(Config{}, simnet.NewDirect(), points)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{Lambda: 1 << 62, MaxSteps: 8}
	var samplers []*core.Sampler
	for _, n := range []*Network{f.cnet, replay} {
		v, err := n.AsDHT(points[0])
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewWithParams(v, rand.New(rand.NewPCG(3, 5)), params, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		samplers = append(samplers, s)
	}
	for i := 0; i < 40; i++ {
		p, tp, err := samplers[0].SampleTraced()
		q, tq, errq := samplers[1].SampleTraced()
		if err != nil || errq != nil || p.Point != q.Point || tp != tq {
			t.Fatalf("sample %d: fleet %v %+v (%v), replay %v %+v (%v)", i, p.Point, tp, err, q.Point, tq, errq)
		}
	}
	if served := f.snet.Served(); served.Walks != 0 || served.Routes == 0 {
		t.Fatalf("the server served %+v for a sampler past two laps", served)
	}
}

func mustCrash(t *testing.T, n *Network, id ring.Point) {
	t.Helper()
	if err := n.Crash(id); err != nil {
		t.Fatal(err)
	}
}

// FuzzServeRoute sends routeReqs with a fuzzed key, hop budget, walk
// parameters, sender and target to a process hosting a contiguous range
// of a small static ring. The serving side must never panic, must
// refuse a budget below one hop, must run no more hops than the budget
// or its own MaxLookupHops, must call only nodes it hosts on the route
// (every other point routes to a port nobody listens on), must send
// each call from the sender, and must answer what the in-process route
// gives after the same number of hops, stopping only where a tail
// stops. It must run the walk exactly when a tail may (a Done answer
// before the budget's last hop, parameters within dht.Walk.Delegable, an
// owner it hosts at least lambda past the key), and the walk must be
// dht.Walk.Over run in process over next steps that fail where this
// process's would: the same peer, steps and pruning (a failed walk's
// steps too), the same failure,
// the same served counters and the same calls charged, the one remote
// call a walk can make being the step that leaves the range and fails.
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
	view, err := ref.AsDHT(points[lo])
	if err != nil {
		f.Fatal(err)
	}
	reg := obs.NewRegistry()
	server.RegisterMetrics(reg)
	remote := obs.Key("wire_rpc_calls_total", obs.Label{Name: "dest", Value: "remote"})
	var mu sync.Mutex
	var senders []simnet.NodeID
	hops := 0
	server.SetInterceptor(func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
		mu.Lock()
		senders = append(senders, from)
		if _, ok := msg.(nextHopReq); ok {
			hops++
		}
		mu.Unlock()
		return resp, err
	})
	lambda := ^uint64(0) / (7 * n)
	f.Add(uint64(points[10]), 5, uint64(0), 0, uint64(points[0]), uint8(0))
	f.Add(uint64(points[3]), 1<<40, lambda, 20, uint64(7), uint8(3))
	f.Add(uint64(points[20])+1, 2, lambda, 20, uint64(1)<<63, uint8(13))
	f.Add(uint64(points[hi-1]), 1, lambda/4, 3, uint64(3), uint8(0))
	f.Add(uint64(points[12])+1, 5, lambda/16, 40, uint64(3), uint8(2))
	f.Add(uint64(points[hi-3])+1, 5, lambda, 9, uint64(3), uint8(5))
	// An owner this process does not host, and a Done answer on the
	// budget's one hop: no walk either time.
	f.Add(uint64(points[hi-1])+1, 5, lambda/16, 9, uint64(3), uint8(2))
	f.Add(uint64(points[10])+1, 1, lambda/16, 9, uint64(3), uint8(10-lo))
	// A walk accepted at its first step, and one that steps out of the
	// range and fails there.
	f.Add(uint64(points[17])-(^uint64(0)/32)/2*3, 5, ^uint64(0)/32, 9, uint64(3), uint8(1))
	f.Add(uint64(points[15])-(^uint64(0)/16)/2*3, 5, ^uint64(0)/16, 9, uint64(3), uint8(1))
	f.Add(^uint64(0), 0, uint64(0), 0, uint64(0), uint8(255))
	f.Add(uint64(12345), -3, uint64(1)<<62, 8, uint64(9), uint8(6))
	f.Fuzz(func(t *testing.T, key uint64, maxHops int, lambda uint64, maxSteps int, sender uint64, target uint8) {
		to := r.At(lo + int(target)%(hi-lo))
		mu.Lock()
		senders, hops = senders[:0], 0
		mu.Unlock()
		before, _ := reg.Snapshot().Value(remote)
		servedBefore, meterBefore := snet.Served(), server.Meter().Snapshot()
		req := routeReq{Key: ring.Point(key), MaxHops: maxHops, Lambda: lambda, MaxSteps: maxSteps}
		raw, err := server.Call(simnet.NodeID(sender), simnet.NodeID(to), req)
		remoteCalls, _ := reg.Snapshot().Value(remote)
		remoteCalls -= before
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
		if got.Hops < 1 || got.Hops > limit || got.Failed != "" || !got.valid(req) {
			t.Fatalf("served %+v within a budget of %d", got, limit)
		}
		mu.Lock()
		sent, hopCalls := append([]simnet.NodeID(nil), senders...), hops
		mu.Unlock()
		if hopCalls != got.Hops-1 {
			t.Fatalf("served %d hops with %d calls", got.Hops, hopCalls)
		}
		for _, from := range sent {
			if from != simnet.NodeID(sender) {
				t.Fatalf("a served call went out from %d, not the sender %d", from, sender)
			}
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
		// The walk: in process, over next steps that fail where a step
		// leaves this process's range.
		w := dht.Walk{Lambda: lambda, MaxSteps: maxSteps}
		d0 := ring.Distance(ring.Point(key), want.Succ)
		mayWalk := want.Done && got.Hops < maxHops && w.Delegable() == nil && d0 >= lambda && hosted(want.Succ)
		var tr dht.Trial
		if mayWalk {
			tr = w.Over(rangeNexter{view, hosted}.Next, dht.Peer{Point: want.Succ}, d0)
		}
		werr := tr.Err
		wantServed := servedBefore
		wantServed.Routes++
		wantServed.RouteHops += int64(got.Hops - 1)
		if mayWalk {
			wantServed.Walks++
			wantServed.TailWalks++
			wantServed.Steps += int64(tr.Steps)
		}
		failedStep := int64(0)
		if werr != nil {
			failedStep = 1
		}
		// The request itself is a call on this transport too.
		charged := server.Meter().Snapshot().Sub(meterBefore)
		switch {
		case (got.Walk != nil) != mayWalk:
			t.Fatalf("served walk %+v (%q); a tail may walk: %t", got.Walk, got.WalkFailed, mayWalk)
		case snet.Served() != wantServed:
			t.Fatalf("served counters went %+v -> %+v, want %+v", servedBefore, snet.Served(), wantServed)
		case charged.Calls != int64(got.Hops+tr.Steps) || charged.Failures != failedStep || int64(remoteCalls) != failedStep:
			t.Fatalf("charged %+v and %v remote calls for %d hops and a walk of %d steps (failed: %v)", charged, remoteCalls, got.Hops, tr.Steps, werr)
		case !mayWalk:
		case werr != nil && got.WalkFailed != simnet.ErrorClass(werr) || werr == nil && got.WalkFailed != "":
			t.Fatalf("served walk failed with %q; in process: %v", got.WalkFailed, werr)
		case got.Walk.Accepted != tr.Accepted || tr.Accepted && got.Walk.P != tr.Peer.Point ||
			got.Walk.Steps != tr.Steps || got.Walk.Pruned != tr.Pruned:
			t.Fatalf("served walk %+v; in process %+v", *got.Walk, tr)
		}
	})
}

// rangeNexter is an in-process view's next, failing a step from a peer
// outside a serving process's range as that process's call to it does:
// nobody listens where the process routes it.
type rangeNexter struct {
	d      dht.DHT
	hosted func(ring.Point) bool
}

func (r rangeNexter) Next(p dht.Peer) (dht.Peer, error) {
	if !r.hosted(p.Point) {
		return dht.Peer{}, simnet.ErrNodeDead
	}
	return r.d.Next(p)
}
