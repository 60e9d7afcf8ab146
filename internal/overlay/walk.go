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
// overlays serve it from Core.dispatchAny.

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

// WalkStats counts the walks a network served for callers and the next
// steps they ran.
type WalkStats struct {
	Walks, Steps int64
}

// ServedWalks returns the walks this network has served and their
// steps.
func (c *Core) ServedWalks() WalkStats {
	return WalkStats{Walks: c.servedWalks.Load(), Steps: c.servedSteps.Load()}
}

// RegisterWalkMetrics exposes served-walk counters on an obs registry;
// get is read at scrape time.
func RegisterWalkMetrics(r *obs.Registry, get func() WalkStats) {
	r.CounterFunc("overlay_walks_served_total",
		"Trial walks this process ran for callers, one round trip each.",
		func() float64 { return float64(get().Walks) })
	r.CounterFunc("overlay_walk_steps_served_total",
		"Next steps the walks this process served ran, each a call on its own transport.",
		func() float64 { return float64(get().Steps) })
}

// serveWalk runs one delegated walk from first on behalf of from. It
// refuses parameters outside core's bound, so no request walks this
// process more than two laps.
func (c *Core) serveWalk(first, from ring.Point, req WalkReq) (simnet.Message, error) {
	params := core.Params{Lambda: req.Lambda, MaxSteps: req.MaxSteps}
	if err := params.Delegable(); err != nil {
		return nil, fmt.Errorf("overlay: walk from %v: %w", first, err)
	}
	view := walkView{c, from}
	s, err := core.NewWithParams(view, nil, params, core.Config{})
	if err != nil {
		return nil, err
	}
	var trace core.Trace
	p, ok, err := s.Walk(view, dht.Peer{Point: first}, req.D0, &trace)
	c.servedWalks.Add(1)
	c.servedSteps.Add(int64(trace.Steps))
	if err != nil {
		return nil, err
	}
	return WalkResp{P: p.Point, Accepted: ok, Steps: trace.Steps, Pruned: trace.Pruned > 0}, nil
}

// walkView is the DHT a served walk runs over: Next is the caller's
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

func (v walkView) H(x ring.Point) (dht.Peer, error) {
	return dht.Peer{}, errors.New("overlay: a served walk makes no lookups")
}
func (v walkView) Size() int            { return v.c.NumAlive() }
func (v walkView) Owners() int          { return v.c.NumAlive() }
func (v walkView) Meter() *simnet.Meter { return v.c.Meter() }

// WalkDelegate implements core.WalkDelegator: a membership with members
// hosted by peer processes offers walkRemote, any other none.
func (d *DHT) WalkDelegate() core.RemoteWalk {
	if !d.core.members.Load().partitioned {
		return nil
	}
	return d.walkRemote
}

// walkRemote sends the walk from first to the process hosting it, when
// that is another one.
func (d *DHT) walkRemote(first dht.Peer, d0 uint64, p core.Params) (core.WalkResult, bool, error) {
	if _, hosted, ok := d.core.members.Load().find(first.Point); !ok || hosted {
		return core.WalkResult{}, false, nil
	}
	raw, err := d.core.Call(d.caller, first.Point, WalkReq{D0: d0, Lambda: p.Lambda, MaxSteps: p.MaxSteps})
	if err != nil {
		if errors.Is(err, simnet.ErrUnknownNode) {
			return core.WalkResult{}, true, fmt.Errorf("%w: walk from %v: %w", dht.ErrUnknownPeer, first.Point, err)
		}
		return core.WalkResult{}, true, fmt.Errorf("overlay dht: walk from %v: %w", first.Point, err)
	}
	r, ok := raw.(WalkResp)
	if !ok {
		return core.WalkResult{}, true, fmt.Errorf("overlay dht: walk from %v answered %T", first.Point, raw)
	}
	return core.WalkResult{Peer: d.peerOf(r.P), Accepted: r.Accepted, Steps: r.Steps, Pruned: r.Pruned}, true, nil
}
