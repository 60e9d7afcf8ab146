package core

import (
	"fmt"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// A trial's walk can run where its peers live. Over a DHT partitioned
// across processes, every next step to a peer another process hosts is
// a network round trip, and a walk mostly chases successors hosted by
// one process: the one that hosts its first peer h(s). That process
// can run the walk itself — the same Walk, each step the same
// get-successor call with the same caller, issued through its own
// transport — and answer once. A sample is a pure function of the
// random stream, the membership and the caller, so the points, trials,
// steps and pruned counts stay what the caller's own walk would give;
// only where the calls are made changes. Over the oracle every peer
// lives in one ring array in this process, and an exclusive fork walks
// it by index (WalkRing): there only how the next peer is found
// changes.

// WalkResult is what a walk run in another process reports back.
type WalkResult struct {
	// Peer is the accepted peer; it is meaningful only when Accepted.
	Peer     dht.Peer
	Accepted bool
	// Steps is the number of next steps walked.
	Steps int
	// Pruned reports a failed walk abandoned at the horizon.
	Pruned bool
}

// RemoteWalk runs one trial's walk at the process hosting first, in
// one round trip, with p's lambda and MaxSteps. sent is false, and
// nothing was sent, when this process hosts first itself: the sampler
// then walks from here. An exclusive fork whose lane holds its ring
// uses the same hook to run every walk in that ring (WalkRing).
type RemoteWalk func(first dht.Peer, d0 uint64, p Params) (w WalkResult, sent bool, err error)

// RemoteLookup resolves h(x) as the DHT's H does — the same peer, from
// the same calls between the same nodes — but hands each run of hops
// that another process hosts to that process, one round trip a run.
// The calls that process makes are charged to its meter, not the DHT's.
// When the last run ends at the process hosting h(x), that process also
// runs the trial's walk from h(x) with p, as RemoteWalk would have it
// run, if d0 = d(x, h(x)) is at least p's lambda: walked is then true,
// w is the walk's outcome and err, when not nil, the walk's error. A
// zero p asks for the lookup only; with walked false, err is the
// lookup's.
type RemoteLookup func(x ring.Point, p Params) (first dht.Peer, w WalkResult, walked bool, err error)

// Delegates is what a DHT whose peers live in several processes hands
// a sampler: where a trial's lookup and its walk may run.
type Delegates struct {
	// Walk, when non-nil, runs walks whose first peer is hosted
	// elsewhere at that peer's process.
	Walk RemoteWalk
	// H, when non-nil, stands in for the DHT's H in a trial, and may
	// run the trial's walk too. The DHT's own H keeps every call on the
	// caller's meter, as the dht.DHT contract and every other caller of
	// H expect.
	H RemoteLookup
}

// Delegator is the optional capability of a DHT whose peers live in
// several processes. A sampler asks once, at construction; a zero
// Delegates means every peer is hosted here and nothing is delegated.
type Delegator interface {
	Delegate() Delegates
}

// twoLaps is 2^65 circle units, the longest horizon a walk may have to
// run in another process. Every horizon New derives with the paper's
// constants is below it (the largest, about 1.3 laps, at nhat just
// above 1); a sampler configured past it walks from the caller.
var twoLaps = ring.S128Mul(4, 1<<63)

// Delegable reports, as an ErrWalkBound error, why a process must
// refuse to run a walk with these parameters for another: lambda = 0,
// MaxSteps < 1, or a horizon (MaxSteps+1)*lambda past two laps. Within
// the bound a served walk stops within two laps of its first peer (and
// one step to finish the last), whatever the request's d0.
func (p Params) Delegable() error {
	if p.Lambda == 0 || p.MaxSteps < 1 || horizon(p.Lambda, p.MaxSteps).Cmp(twoLaps) > 0 {
		return fmt.Errorf("%w: lambda %d, max steps %d", ErrWalkBound, p.Lambda, p.MaxSteps)
	}
	return nil
}

// Nexter is the one call a trial's walk makes: get-successor, the
// paper's next(p). Every dht.DHT is one; a process serving a walk for
// another offers nothing more.
type Nexter interface {
	Next(p dht.Peer) (dht.Peer, error)
}

// walker is the rule of one trial's walk, written once for Walk and
// WalkRing, which differ only in how they reach the next peer: T, the
// MaxSteps bound, the horizon past which no step can accept, and the
// trial's steps and pruning in its Trace.
type walker struct {
	lambda uint64
	left   int // steps the bound still allows
	// t is T: the distance walked from the trial's starting point, less
	// lambda per peer visited.
	t ring.S128
}

// walker starts the rule of a walk from a first peer at distance d0 >=
// lambda from the trial's starting point.
func (p Params) walker(d0 uint64) walker {
	return walker{lambda: p.Lambda, left: p.MaxSteps, t: ring.S128Of(d0).SubUint(p.Lambda)}
}

// more reports whether the walk takes another step: not once it has
// taken MaxSteps, nor once it is past the horizon (MaxSteps+1)*lambda
// from the starting point, where it counts the trial pruned. The walk
// is past the horizon exactly when T exceeds left*lambda, the most the
// steps left can take off it.
func (w *walker) more(trace *Trace) bool {
	if w.left <= 0 {
		return false
	}
	if ring.S128Mul(uint64(w.left), w.lambda).Sub(w.t).IsNeg() {
		trace.Pruned++
		return false
	}
	return true
}

// step counts one step, to a peer arc further clockwise, and reports
// whether T fell to zero there: the walk accepts that peer.
func (w *walker) step(arc uint64, trace *Trace) bool {
	trace.Steps++
	w.left--
	w.t = w.t.AddSubUint(arc, w.lambda)
	return !w.t.IsPos()
}

// Walk is step 3 of Figure 1, one trial's next walk: from first, at
// distance d0 >= lambda from the trial's starting point, it walks
// successors through n until T falls to zero (ok, the accepted peer)
// or the walk is spent — MaxSteps steps, or pruned at the horizon. It
// adds its steps and any pruning to trace. A sampler runs it for its
// own trials; a process that hosts a walk's first peer runs it for a
// caller in another process (see RemoteWalk).
func (p Params) Walk(n Nexter, first dht.Peer, d0 uint64, trace *Trace) (dht.Peer, bool, error) {
	w := p.walker(d0)
	for cur := first; w.more(trace); {
		next, err := n.Next(cur)
		if err != nil {
			return dht.Peer{}, false, fmt.Errorf("core: next(%v): %w", cur.Point, err)
		}
		if w.step(ring.Distance(cur.Point, next.Point), trace) {
			return next, true, nil
		}
		cur = next
	}
	return dht.Peer{}, false, nil
}

// WalkRing is Walk over a lane that holds its ring: it reads each
// successor's point in place, by index, where Walk asks Next for it,
// stops at the step Walk stops at, and charges the lane one next call a
// step. The peer, the steps, the pruning and the error for a first peer
// that is not a member are Walk's over the lane's Next. An exclusive
// fork runs it for every trial over the oracle's lane.
func (p Params) WalkRing(r dht.RingLane, first dht.Peer, d0 uint64, trace *Trace) (dht.Peer, bool, error) {
	w := p.walker(d0)
	if !w.more(trace) {
		return dht.Peer{}, false, nil
	}
	i, err := r.Index(first)
	if err != nil {
		return dht.Peer{}, false, fmt.Errorf("core: next(%v): %w", first.Point, err)
	}
	points, steps := r.Ring().Sorted(), trace.Steps
	for {
		cur := points[i]
		if i++; i == len(points) {
			i = 0
		}
		if w.step(ring.Distance(cur, points[i]), trace) {
			break
		}
		if !w.more(trace) {
			i = -1 // spent
			break
		}
	}
	r.Walked(trace.Steps - steps)
	if i < 0 {
		return dht.Peer{}, false, nil
	}
	return r.PeerByIndex(i), true, nil
}
