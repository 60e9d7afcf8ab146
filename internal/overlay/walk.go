package overlay

import (
	"errors"
	"fmt"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// Trials across processes. A sampler over a DHT partitioned across
// processes runs each trial's walk at the process hosting the walk's
// first peer h(s), which runs dht.Walk.Over there: each step is the
// get-successor call the caller would have made, with the caller as
// sender, issued through the serving process's own transport — its
// faults, interceptor and meter see each step as any call it makes,
// and a step that leaves the process is an ordinary remote call. Both
// overlays serve a WalkReq from Core.dispatchAny. Over chord the walk
// usually goes with the lookup's last route tail (Router.OwnerWalk),
// which ends at the process hosting h(s); the served counters cover
// all three. DHT.Trials is the runner that does this.

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
// refuses a walk rule outside dht.Walk.Delegable's bound, so no request
// walks this process more than two laps. A walk that fails returns its
// steps so far with the error.
func (c *Core) ServeWalk(first, from ring.Point, req WalkReq) (WalkResp, error) {
	w := dht.Walk{Lambda: req.Lambda, MaxSteps: req.MaxSteps}
	if err := w.Delegable(); err != nil {
		return WalkResp{}, fmt.Errorf("overlay: walk from %v: %w", first, err)
	}
	t := w.Over(walkView{c, from}.Next, dht.Peer{Point: first}, req.D0)
	c.servedWalks.Add(1)
	c.servedSteps.Add(int64(t.Steps))
	return WalkResp{P: t.Peer.Point, Accepted: t.Accepted, Steps: t.Steps, Pruned: t.Pruned}, t.Err
}

// walkView is the next step a served walk takes: the caller's
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

// Trials implements dht.Trials. A membership whose members all live
// here runs a trial as dht.NewRunner does. A partitioned one runs it
// in a splitTrials.
func (d *DHT) Trials(w dht.Walk, draw func() ring.Point, _ bool) dht.Runner {
	if !d.core.members.Load().partitioned {
		return dht.NewRunner(d, w, draw)
	}
	return splitTrials{d: d, w: w, draw: draw, send: w.Delegable() == nil}
}

// splitTrials runs a sampler's trials over a partitioned membership:
// h(s) through the router's OwnerWalk, which may run the walk too, and
// otherwise the walk at the process hosting h(s), sent as a WalkReq
// when that is another one. It keeps no state, so it is safe for
// concurrent use, and charges every call as it is made.
type splitTrials struct {
	d    *DHT
	w    dht.Walk
	draw func() ring.Point
	// send is whether a walk may run at another process; one past
	// Delegable's bound runs from the caller, and its lookup asks no
	// process to run it.
	send bool
}

func (r splitTrials) Trial() dht.Trial {
	d, x := r.d, r.draw()
	var fused dht.Walk
	if r.send {
		fused = r.w
	}
	owner, walked, err := d.r.OwnerWalk(d.caller, x, fused)
	if walked == nil && err != nil {
		_, err = d.ownerOf(x, owner, err)
		return dht.Trial{Err: fmt.Errorf("h(%v): %w", x, err)}
	}
	first := d.peerOf(owner)
	d0 := ring.Distance(x, owner)
	switch {
	case d0 < r.w.Lambda:
		return dht.Trial{H: first, Peer: first, Accepted: true}
	case walked != nil:
		t := d.trialOf(first, *walked)
		if err != nil {
			t.Err = walkError(owner, err)
		}
		return t
	}
	if _, hosted, ok := d.core.members.Load().find(owner); r.send && ok && !hosted {
		return d.walkRemote(first, d0, r.w)
	}
	t := r.w.Over(d.Next, first, d0)
	t.H = first
	return t
}

func (splitTrials) Flush() {}

// walkRemote sends the walk from first to the process hosting it, one
// WalkReq round trip. A failed WalkReq is an error reply with no body,
// so its outcome counts no steps.
func (d *DHT) walkRemote(first dht.Peer, d0 uint64, w dht.Walk) dht.Trial {
	raw, err := d.core.Call(d.caller, first.Point, WalkReq{D0: d0, Lambda: w.Lambda, MaxSteps: w.MaxSteps})
	if err != nil {
		return dht.Trial{H: first, Err: walkError(first.Point, err)}
	}
	resp, ok := raw.(WalkResp)
	if !ok {
		return dht.Trial{H: first, Err: fmt.Errorf("walk from %v: overlay dht: answered %T", first.Point, raw)}
	}
	return d.trialOf(first, resp)
}

// trialOf is the outcome of a trial from first whose walk another
// process ran and answered with r.
func (d *DHT) trialOf(first dht.Peer, r WalkResp) dht.Trial {
	return dht.Trial{H: first, Peer: d.peerOf(r.P), Accepted: r.Accepted, Steps: r.Steps, Pruned: r.Pruned}
}

// walkError is the error of a walk from first that failed at the process
// running it, sent there alone or with a route tail: a node unknown
// there is a peer unknown to the DHT, as Next reports it.
func walkError(first ring.Point, err error) error {
	if errors.Is(err, simnet.ErrUnknownNode) {
		return fmt.Errorf("walk from %v: %w: %w", first, dht.ErrUnknownPeer, err)
	}
	return fmt.Errorf("walk from %v: overlay dht: %w", first, err)
}
