package overlay

import (
	"errors"
	"fmt"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// Delegated walks. A sampler over a DHT partitioned across processes
// sends a trial's next walk to the process hosting the walk's first
// peer (core.RemoteWalk), which runs core's Walk there: each step is
// the get-successor call the caller would have made, with the caller
// as sender, issued through the serving process's own transport — its
// faults, interceptor and meter see each step as any call it makes,
// and a step that leaves the process is an ordinary remote call. Both
// overlays serve it from Core.dispatchAny. DHT.Delegate hands a sampler
// the walk and, over a TailRouter, the lookup, whose last route tail
// runs the walk itself when its process hosts the walk's first peer;
// the served counters cover all three.

// WalkReq asks the node it is sent to for one trial's walk from
// itself: d0 is the trial's distance d(s, l(first)), and Lambda and
// MaxSteps the caller's parameters.
type WalkReq struct {
	D0       uint64
	Lambda   uint64
	MaxSteps int
}

// WalkResp answers WalkReq: the accepted peer P when Accepted, the
// steps walked, and whether a failed walk was pruned at the horizon.
type WalkResp struct {
	P        ring.Point
	Accepted bool
	Steps    int
	Pruned   bool
}

func init() {
	wire.RegisterValue[WalkReq]("overlay.WalkReq")
	wire.RegisterValue[WalkResp]("overlay.WalkResp")
}

// ServedStats counts what a network ran for callers in other
// processes: the walks it served and their next steps, and the route
// tails it served (chord's) and their hops after the first. Each step
// and each such hop is a successful call on its own transport. A walk
// is a round trip of its own (a WalkReq) except for the TailWalks among
// Walks, which a route tail ran and answered with its route.
type ServedStats struct {
	Walks, Steps, TailWalks int64
	Routes, RouteHops       int64
}

// Served returns what this network has served for callers.
func (c *Core) Served() ServedStats {
	return ServedStats{
		Walks: c.servedWalks.Load(), Steps: c.servedSteps.Load(), TailWalks: c.servedTailWalks.Load(),
		Routes: c.servedRoutes.Load(), RouteHops: c.servedRouteHops.Load(),
	}
}

// CountServedRoute records one route tail served for a caller, which
// made hops successful calls after the request's own hop and, when
// walked, ran the trial's walk (ServeWalk) as well.
func (c *Core) CountServedRoute(hops int, walked bool) {
	c.servedRoutes.Add(1)
	c.servedRouteHops.Add(int64(hops))
	if walked {
		c.servedTailWalks.Add(1)
	}
}

// RegisterServedMetrics exposes the served counters on an obs
// registry; get is read at scrape time.
func RegisterServedMetrics(r *obs.Registry, get func() ServedStats) {
	r.CounterFunc("overlay_walks_served_total",
		"Trial walks this process ran for callers, one round trip each but those a route tail ran.",
		func() float64 { return float64(get().Walks) })
	r.CounterFunc("overlay_walk_steps_served_total",
		"Next steps the walks this process served ran, each a call on its own transport.",
		func() float64 { return float64(get().Steps) })
	r.CounterFunc("overlay_tail_walks_served_total",
		"Trial walks among the walks served that a route tail ran and answered with its route, no round trip of their own.",
		func() float64 { return float64(get().TailWalks) })
	r.CounterFunc("overlay_routes_served_total",
		"Lookup route tails this process ran for callers, one round trip each.",
		func() float64 { return float64(get().Routes) })
	r.CounterFunc("overlay_route_hops_served_total",
		"Hops after the first that the route tails this process served ran, each a call on its own transport.",
		func() float64 { return float64(get().RouteHops) })
}

// ServeWalk runs one delegated walk from first on behalf of from: a
// WalkReq's, or one a route tail runs from the owner it found. It
// refuses parameters outside core's bound, so no request walks this
// process more than two laps.
func (c *Core) ServeWalk(first, from ring.Point, req WalkReq) (WalkResp, error) {
	params := core.Params{Lambda: req.Lambda, MaxSteps: req.MaxSteps}
	if err := params.Delegable(); err != nil {
		return WalkResp{}, fmt.Errorf("overlay: walk from %v: %w", first, err)
	}
	var trace core.Trace
	p, ok, err := params.Walk(walkView{c, from}, dht.Peer{Point: first}, req.D0, &trace)
	c.servedWalks.Add(1)
	c.servedSteps.Add(int64(trace.Steps))
	if err != nil {
		return WalkResp{}, err
	}
	return WalkResp{P: p.Point, Accepted: ok, Steps: trace.Steps, Pruned: trace.Pruned > 0}, nil
}

// walkView is the core.Nexter a served walk runs over: the caller's
// get-successor call, issued from here. Its errors keep their simnet
// class, which the wire carries back to the caller. A node that is its
// own successor (a ring of one) ends the walk: each step there would
// be a whole lap the walk's arithmetic cannot see.
type walkView struct {
	c    *Core
	from ring.Point
}

func (v walkView) Next(p dht.Peer) (dht.Peer, error) {
	succ, err := v.c.Successor(v.from, p.Point)
	if err != nil {
		return dht.Peer{}, err
	}
	if succ == p.Point {
		return dht.Peer{}, fmt.Errorf("overlay: %v is its own successor", p.Point)
	}
	return dht.Peer{Point: succ, Owner: -1}, nil
}

// Delegate implements core.Delegator. A membership with members hosted
// by peer processes offers walkRemote and, when the router serves
// route tails, H over them; any other offers nothing.
func (d *DHT) Delegate() core.Delegates {
	if !d.core.members.Load().partitioned {
		return core.Delegates{}
	}
	del := core.Delegates{Walk: d.walkRemote}
	if t, ok := d.r.(TailRouter); ok {
		del.H = func(x ring.Point, p core.Params) (dht.Peer, core.WalkResult, bool, error) {
			owner, w, walked, err := t.OwnerTails(d.caller, x, p)
			if !walked {
				first, err := d.ownerOf(x, owner, err)
				return first, core.WalkResult{}, false, err
			}
			if err != nil {
				return d.peerOf(owner), core.WalkResult{}, true, walkError(owner, err)
			}
			w.Peer = d.peerOf(w.Peer.Point)
			return d.peerOf(owner), w, true, nil
		}
	}
	return del
}

// walkRemote sends the walk from first to the process hosting it, when
// that is another one.
func (d *DHT) walkRemote(first dht.Peer, d0 uint64, p core.Params) (core.WalkResult, bool, error) {
	if _, hosted, ok := d.core.members.Load().find(first.Point); !ok || hosted {
		return core.WalkResult{}, false, nil
	}
	raw, err := d.core.Call(d.caller, first.Point, WalkReq{D0: d0, Lambda: p.Lambda, MaxSteps: p.MaxSteps})
	if err != nil {
		return core.WalkResult{}, true, walkError(first.Point, err)
	}
	r, ok := raw.(WalkResp)
	if !ok {
		return core.WalkResult{}, true, fmt.Errorf("overlay dht: walk from %v answered %T", first.Point, raw)
	}
	return core.WalkResult{Peer: d.peerOf(r.P), Accepted: r.Accepted, Steps: r.Steps, Pruned: r.Pruned}, true, nil
}

// walkError is the error of a walk from first that failed at the process
// running it, sent there alone or with a route tail: a node unknown
// there is a peer unknown to the DHT, as Next reports it.
func walkError(first ring.Point, err error) error {
	if errors.Is(err, simnet.ErrUnknownNode) {
		return fmt.Errorf("%w: walk from %v: %w", dht.ErrUnknownPeer, first, err)
	}
	return fmt.Errorf("overlay dht: walk from %v: %w", first, err)
}
