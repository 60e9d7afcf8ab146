package dht

import (
	"errors"
	"fmt"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// Trials. The paper's unit of work is the trial of Figure 1: draw a
// start s, look up h(s), and unless h(s) lies within lambda of s, walk
// next steps from it until T falls to zero or the walk is spent. A
// sampler hands its trials to a Runner, one trial a call, and reads
// back each outcome in the order of its starts. NewRunner is the runner
// every DHT has: H, then the walk over Next. A DHT that can run a trial
// better, where its peers live, offers the Trials capability: the
// oracle resolves a window of lookups at once and walks its ring by
// index; an overlay split across processes runs a trial's walk, and on
// chord the tail of its lookup, at the process hosting them. Whatever
// runs a trial, its outcome is the one NewRunner gives: the same peers,
// steps and pruning from the same starts, and the same charges once the
// runner is flushed. The walk rule lives here, below the sampler,
// because every one of those places runs it.

// Walk is the rule of a trial's walk: Lambda is the arc measure
// assigned to every peer, in circle units, and MaxSteps the most next
// steps a trial takes.
type Walk struct {
	Lambda   uint64
	MaxSteps int
}

// Trial is the outcome of one trial.
type Trial struct {
	// H is h(s), the trial's first peer.
	H Peer
	// Peer is the accepted peer: H itself when it lies within Lambda of
	// s, else the peer the walk accepted. It is meaningful only when
	// Accepted.
	Peer     Peer
	Accepted bool
	// Steps is the number of next steps walked, and Pruned reports a
	// failed walk abandoned at the horizon.
	Steps  int
	Pruned bool
	// Err, when not nil, ended the trial and with it the sample: the
	// lookup's failure, or a walk's after Steps steps. It names the
	// failed call (h, next, or a walk run elsewhere) for the sampler to
	// prefix.
	Err error
}

// Runner runs the trials of one sampler, in the order of the starts it
// draws.
type Runner interface {
	// Trial runs the next trial.
	Trial() Trial
	// Flush charges the DHT's meter for the trials run since the last
	// Flush that are not on it yet. A sampler flushes as each Sample
	// call returns, so the meter is exact whenever no Sample is in
	// flight.
	Flush()
}

// Trials is the optional capability of a DHT that runs a sampler's
// trials itself. A sampler asks once, as it is built or forked; a
// decorator that forwards this one method keeps every fast path behind
// it.
type Trials interface {
	// Trials returns a runner of trials with walk rule w from the
	// starts draw yields, for one sampler. exclusive promises that the
	// sampler is confined to one goroutine; otherwise the runner must
	// be safe for concurrent use. A runner may draw starts ahead of the
	// trials it has run and keep them for the next ones.
	Trials(w Walk, draw func() ring.Point, exclusive bool) Runner
}

// NewRunner returns the runner every DHT has: each trial is d.H of the
// next start, then the walk over d.Next, every call charged to d's
// meter as it is made. It draws one start a trial and is safe for
// concurrent use when draw is.
func NewRunner(d DHT, w Walk, draw func() ring.Point) Runner {
	return stepwise{d, w, draw}
}

type stepwise struct {
	d    DHT
	w    Walk
	draw func() ring.Point
}

func (r stepwise) Trial() Trial {
	x := r.draw()
	first, err := r.d.H(x)
	if err != nil {
		return Trial{Err: fmt.Errorf("h(%v): %w", x, err)}
	}
	d0 := ring.Distance(x, first.Point)
	if d0 < r.w.Lambda {
		return Trial{H: first, Peer: first, Accepted: true}
	}
	t := r.w.Over(r.d.Next, first, d0)
	t.H = first
	return t
}

func (stepwise) Flush() {}

// Over is step 3 of Figure 1, one trial's walk: from first, at distance
// d0 >= Lambda from the trial's start, it walks successors through next
// until T falls to zero (Accepted, at Peer) or the walk is spent —
// MaxSteps steps, or Pruned at the horizon. A failed step ends it with
// Err, after the steps before it. A process that hosts a walk's first
// peer runs it so for a caller in another process.
func (w Walk) Over(next func(Peer) (Peer, error), first Peer, d0 uint64) Trial {
	var t Trial
	k := w.walker(d0)
	for cur := first; k.more(&t); {
		p, err := next(cur)
		if err != nil {
			t.Err = fmt.Errorf("next(%v): %w", cur.Point, err)
			return t
		}
		if k.step(ring.Distance(cur.Point, p.Point), &t) {
			t.Peer, t.Accepted = p, true
			return t
		}
		cur = p
	}
	return t
}

// overRing is Over in a ring held here: from the peer at index i of
// points it reads each successor in place, by index, where Over asks
// next for it, and stops at the step Over stops at. It returns the
// index of the accepted peer, or -1.
func (w Walk) overRing(points []ring.Point, i int, d0 uint64, t *Trial) int {
	k := w.walker(d0)
	if !k.more(t) {
		return -1
	}
	for {
		cur := points[i]
		if i++; i == len(points) {
			i = 0
		}
		if k.step(ring.Distance(cur, points[i]), t) {
			return i
		}
		if !k.more(t) {
			return -1
		}
	}
}

// Horizon returns (MaxSteps+1)*Lambda: the farthest a trial's walk can
// be from its start s and still accept. A walk accepts at step j <=
// MaxSteps only while d(s, p_j) <= (j+1)*Lambda, and the distance
// walked never shrinks, so once it exceeds the horizon the trial has
// failed whatever the remaining arcs are. The walk abandons the trial
// there and core's analyzer stops scanning the arc there; both take the
// horizon from here so they cannot disagree. It is a 128-bit value:
// Lambda near 2^63 (tiny rings) times a two-digit step count overflows
// 64 bits.
func (w Walk) Horizon() ring.S128 {
	return ring.S128Mul(uint64(w.MaxSteps)+1, w.Lambda)
}

// ErrWalkBound is returned for walk rules no process runs on another's
// behalf (see Walk.Delegable).
var ErrWalkBound = errors.New("dht: walk parameters out of bounds")

// twoLaps is 2^65 circle units, the longest horizon a walk may have to
// run in another process. Every horizon core derives with the paper's
// constants is below it (the largest, about 1.3 laps, at nhat just
// above 1); a walk past it runs from the caller.
var twoLaps = ring.S128Mul(4, 1<<63)

// Delegable reports, as an ErrWalkBound error, why a process must
// refuse to run a walk with this rule for another: Lambda = 0,
// MaxSteps < 1, or a horizon past two laps. Within the bound a served
// walk stops within two laps of its first peer (and one step to finish
// the last), whatever the request's d0.
func (w Walk) Delegable() error {
	if w.Lambda == 0 || w.MaxSteps < 1 || w.Horizon().Cmp(twoLaps) > 0 {
		return fmt.Errorf("%w: lambda %d, max steps %d", ErrWalkBound, w.Lambda, w.MaxSteps)
	}
	return nil
}

// walker is the rule of one walk, written once for Over and overRing,
// which differ only in how they reach the next peer: T, the MaxSteps
// bound, the horizon past which no step can accept, and the trial's
// steps and pruning.
type walker struct {
	lambda uint64
	left   int // steps the bound still allows
	// t is T: the distance walked from the trial's start, less lambda
	// per peer visited.
	t ring.S128
}

// walker starts the rule of a walk from a first peer at distance d0 >=
// Lambda from the trial's start.
func (w Walk) walker(d0 uint64) walker {
	return walker{lambda: w.Lambda, left: w.MaxSteps, t: ring.S128Of(d0).SubUint(w.Lambda)}
}

// more reports whether the walk takes another step: not once it has
// taken MaxSteps, nor once it is past the horizon, where it marks the
// trial pruned. The walk is past the horizon exactly when T exceeds
// left*lambda, the most the steps left can take off it.
func (k *walker) more(t *Trial) bool {
	if k.left <= 0 {
		return false
	}
	if ring.S128Mul(uint64(k.left), k.lambda).Sub(k.t).IsNeg() {
		t.Pruned = true
		return false
	}
	return true
}

// step counts one step, to a peer arc further clockwise, and reports
// whether T fell to zero there: the walk accepts that peer.
func (k *walker) step(arc uint64, t *Trial) bool {
	t.Steps++
	k.left--
	k.t = k.t.AddSubUint(arc, k.lambda)
	return !k.t.IsPos()
}
