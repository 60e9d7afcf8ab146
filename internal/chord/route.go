package chord

import (
	"errors"
	"fmt"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Route tails. A lookup is iterative: its initiator asks each hop for
// the next one. Across processes most of those asks are round trips to
// one process, because after its first hop a lookup closes in on the
// key's owner and a partitioned ring gives each process one contiguous
// range. OwnerTails (a sampler's h, through overlay.DHT) therefore
// sends a hop to a node another process hosts as one routeReq in place
// of the nextHopReq: that process answers from the node's own nextHop
// and, while the best candidate is a node it also hosts, keeps routing
// there — each further hop the nextHopReq the initiator would have
// sent, with the initiator as sender, through its own transport — and
// replies once. Every call is one the iterative lookup makes, between
// the same nodes, and the serving process calls only nodes it hosts;
// only the process that makes a call changes. Lookup, LookupVia,
// OwnerTails and the serving side run the one loop, route.
//
// A sampler's trial goes on from the owner its lookup finds to a walk
// of next steps from that owner (core.RemoteWalk), which runs at the
// process hosting the owner: the process a route tail usually ends at.
// So a routeReq may carry the trial's walk parameters, and a tail that
// ends at an owner its process hosts runs the walk there, as that
// process serves a WalkReq (overlay.Core.ServeWalk), and answers both
// in one reply.

// routeReq asks the node it is sent to for the next hop toward Key and
// its process for the hops after it to nodes it also hosts: at most
// MaxHops hops in all, the request itself the first. Lambda and
// MaxSteps, when not zero, are the trial's walk parameters: the process
// runs the walk from Key's owner as well, when it hosts the owner and
// the owner is at least Lambda past Key.
type routeReq struct {
	Key      ring.Point
	MaxHops  int
	Lambda   uint64 `json:",omitempty"`
	MaxSteps int    `json:",omitempty"`
}

// routeResp answers routeReq: Last is the last next-hop answer the
// serving process received and Hops the hops it ran. Failed, when not
// empty, is the simnet class (simnet.ErrorClass) of its hop to Last's
// best candidate, which failed; the initiator carries on from Last as
// if its own call to that candidate had failed. Walk, when not nil, is
// the outcome of the walk the process ran from Last.Succ, or, when
// WalkFailed is not empty, the walk failed with that class.
type routeResp struct {
	Last       nextHopResp
	Hops       int
	Failed     string            `json:",omitempty"`
	Walk       *overlay.WalkResp `json:",omitempty"`
	WalkFailed string            `json:",omitempty"`
}

// valid reports whether a correct process could answer req with r: a
// hop count within [1, MaxHops], a failure only on a candidate within
// the budget, and a walk only when asked for, from the owner of a Done
// answer at least Lambda past Key, before the budget runs out (the
// initiator discards a Done answer on its last hop), of at most
// MaxSteps steps, not both accepted and pruned, and failed only with a
// class simnet.ErrorClass gives a failure.
func (r *routeResp) valid(req routeReq) bool {
	if !r.Last.valid() || r.Hops < 1 || r.Hops > req.MaxHops ||
		r.Failed != "" && (r.Last.Done || r.Last.N == 0 || r.Hops == req.MaxHops) {
		return false
	}
	if r.Walk == nil {
		return r.WalkFailed == ""
	}
	w := r.Walk
	return r.Failed == "" && r.Last.Done && r.Hops < req.MaxHops && req.Lambda != 0 &&
		ring.Distance(req.Key, r.Last.Succ) >= req.Lambda &&
		w.Steps >= 0 && w.Steps <= req.MaxSteps && !(w.Accepted && w.Pruned) &&
		(r.WalkFailed == "" || r.WalkFailed == "app" || simnet.ClassError(r.WalkFailed) != nil)
}

// errBadReply marks a reply no correct node sends: a route treats it
// as a failed hop.
var errBadReply = errors.New("chord: malformed routing reply")

// lookup is what route reads of one lookup.
type lookup struct {
	// initiator's fingers to failed hops are invalidated; noSlot for
	// none.
	initiator uint32
	from, key ring.Point
	// req is nextHopReq{key}, boxed once for every hop.
	req     simnet.Message
	maxHops int
	// tails sends a hop to a node another process hosts as a routeReq.
	tails bool
	// serving runs a routeReq's tail for from: it hops only to nodes
	// this process hosts, ends at the first hop that fails and hands
	// the last answer back.
	serving bool
	// walk is the trial's walk a tail may run from the owner it finds
	// (zero: none). walked and walkFailed are the walk's outcome as the
	// tail that ran it reported it; that tail ends the route.
	walk       core.Params
	walked     *overlay.WalkResp
	walkFailed string
}

func (n *Network) newLookup(initiator uint32, from, key ring.Point) lookup {
	return lookup{initiator: initiator, from: from, key: key, req: nextHopReq{Key: key}, maxHops: n.cfg.MaxLookupHops}
}

// lookupFrom resolves l's key from the local node l.from: the first
// routing step reads that node's own table, the rest follow route.
func (n *Network) lookupFrom(l *lookup) (ring.Point, error) {
	initiator, err := n.Node(l.from)
	if err != nil {
		return 0, err
	}
	l.initiator = initiator.slot
	return n.resolve(l, n.nextHop(initiator.slot, nextHopReq{Key: l.key}))
}

// OwnerTails implements overlay.TailRouter: Owner, with every hop to a
// node another process hosts sent as a routeReq that carries p, so the
// same calls resolve the same owner in fewer round trips, and a tail
// that ends at the process hosting the owner runs the trial's walk
// there. walked reports that it did; err is then the walk's.
func (n *Network) OwnerTails(from, x ring.Point, p core.Params) (ring.Point, core.WalkResult, bool, error) {
	l := n.newLookup(noSlot, from, x)
	l.tails, l.walk = true, p
	owner, err := n.lookupFrom(&l)
	if err != nil || l.walked == nil {
		return owner, core.WalkResult{}, false, err
	}
	if l.walkFailed != "" {
		return owner, core.WalkResult{}, true, fmt.Errorf("chord: walk from %v with its route tail failed: %w", owner, classCause(l.walkFailed))
	}
	w := l.walked
	return owner, core.WalkResult{Peer: dht.Peer{Point: w.P, Owner: -1}, Accepted: w.Accepted, Steps: w.Steps, Pruned: w.Pruned}, true, nil
}

// resolve runs an initiator's route from resp and returns the owner.
func (n *Network) resolve(l *lookup, resp *nextHopResp) (ring.Point, error) {
	resp, _, err := n.route(l, resp, 0)
	if err != nil {
		return 0, err
	}
	succ := resp.Succ
	putNextHopResp(resp)
	return succ, nil
}

// route follows the candidate chain from resp, the answer after hops
// hops, toward l.key's successor, consuming (recycling) each answer it
// leaves behind. A failed hop falls back to the next candidate of the
// same answer, invalidating the initiator's fingers to it. An
// initiator's route ends at a Done answer, which it returns, or with
// ErrLookupAborted: no candidate, every candidate failed, or
// l.maxHops hops made. A served route also stops, with no error, at a
// candidate this process does not host and at its budget; it ends at
// the first failed hop with that hop's error and the answer whose best
// candidate failed. Either way the hops made so far come back too.
func (n *Network) route(l *lookup, resp *nextHopResp, hops int) (*nextHopResp, int, error) {
	var backup [maxCandidates - 1]ring.Point
	for hops < l.maxHops {
		if resp.Done || l.serving && (resp.N == 0 || !n.hosts(resp.Cands[0])) {
			return resp, hops, nil
		}
		if resp.N == 0 {
			putNextHopResp(resp)
			return nil, hops, fmt.Errorf("%w: no route toward %v", ErrLookupAborted, l.key)
		}
		cur := resp.Cands[0]
		nBackup := copy(backup[:], resp.Cands[1:resp.N])
		putNextHopResp(resp)
		next := 0
		for {
			var err error
			var made int
			if l.tails && !n.hosts(cur) {
				resp, made, err = n.tail(l, cur, l.maxHops-hops)
			} else {
				resp, err = n.call(l, cur)
				made = 1
			}
			if err == nil {
				hops += made
				break
			}
			if resp != nil {
				// The tail made its hops, then failed the one to resp's
				// best candidate: carry on as if this process had.
				hops += made
				cur = resp.Cands[0]
				nBackup, next = copy(backup[:], resp.Cands[1:resp.N]), 0
				putNextHopResp(resp)
			}
			if l.serving {
				failed := newNextHopResp()
				failed.Cands[0] = cur
				failed.N = 1 + copy(failed.Cands[1:], backup[:nBackup])
				return failed, hops, err
			}
			if l.initiator != noSlot {
				n.invalidateFingersTo(l.initiator, cur)
			}
			if next >= nBackup {
				// Double-wrap so callers can match both the lookup
				// abort and the transport-level cause (ErrDropped,
				// ErrPartitioned) behind it.
				return nil, hops, fmt.Errorf("%w: all routes toward %v failed: %w", ErrLookupAborted, l.key, err)
			}
			cur = backup[next]
			next++
		}
	}
	if l.serving {
		return resp, hops, nil
	}
	putNextHopResp(resp)
	return nil, hops, fmt.Errorf("%w: exceeded %d hops toward %v", ErrLookupAborted, l.maxHops, l.key)
}

// hosts reports whether this process hosts the live node id.
func (n *Network) hosts(id ring.Point) bool {
	_, ok := n.LiveSlot(id)
	return ok
}

// call makes one hop: a nextHopReq to cur. A reply that is not a
// next-hop answer, or names more candidates than one can hold, fails
// the hop.
func (n *Network) call(l *lookup, cur ring.Point) (*nextHopResp, error) {
	raw, err := n.Call(l.from, cur, l.req)
	if err != nil {
		return nil, err
	}
	if resp, ok := raw.(*nextHopResp); ok && resp.valid() {
		return resp, nil
	}
	return nil, fmt.Errorf("%w: %v answered a hop with %+v", errBadReply, cur, raw)
}

// valid reports whether the reply's candidate count fits its array.
func (r *nextHopResp) valid() bool { return r.N >= 0 && r.N <= maxCandidates }

// tail sends the hop to cur, a node another process hosts, as a
// routeReq with left hops of budget, and returns the last answer with
// the hops made; a walk the tail ran is left in l. A failed tail
// returns its last answer too, with the failure's class as the error.
// A reply the serving side cannot send (routeResp.valid) fails the hop
// as a whole.
func (n *Network) tail(l *lookup, cur ring.Point, left int) (*nextHopResp, int, error) {
	req := routeReq{Key: l.key, MaxHops: left, Lambda: l.walk.Lambda, MaxSteps: l.walk.MaxSteps}
	raw, err := n.Call(l.from, cur, req)
	if err != nil {
		return nil, 0, err
	}
	t, ok := raw.(routeResp)
	if !ok || !t.valid(req) {
		return nil, 0, fmt.Errorf("%w: %v answered a route with %+v", errBadReply, cur, raw)
	}
	resp := newNextHopResp()
	*resp = t.Last
	if t.Walk != nil {
		l.walked, l.walkFailed = t.Walk, t.WalkFailed
	}
	if t.Failed == "" {
		return resp, t.Hops, nil
	}
	return resp, t.Hops, fmt.Errorf("chord: hop to %v after %d hops through %v failed: %w", t.Last.Cands[0], t.Hops, cur, classCause(t.Failed))
}

// classCause is the error a failure class a serving process reported
// stands for: the simnet taxonomy error, or the class itself.
func classCause(class string) error {
	if cause := simnet.ClassError(class); cause != nil {
		return cause
	}
	return errors.New(class)
}

// serveRoute answers a routeReq sent to the node in slot s: that node's
// next hop, then, through this process's transport with from as the
// sender, the hops after it to nodes this process hosts. It refuses a
// budget below one hop and makes at most MaxHops hops and at most its
// own MaxLookupHops. It changes no routing state. It then runs the
// trial's walk the request carries, when it may (tailWalk).
func (n *Network) serveRoute(s uint32, from simnet.NodeID, m routeReq) (simnet.Message, error) {
	if m.MaxHops < 1 {
		return nil, fmt.Errorf("chord: route toward %v with a budget of %d hops", m.Key, m.MaxHops)
	}
	l := n.newLookup(noSlot, ring.Point(from), m.Key)
	l.maxHops = min(m.MaxHops, l.maxHops)
	l.serving = true
	resp, hops, err := n.route(&l, n.nextHop(s, nextHopReq{Key: m.Key}), 1)
	out := routeResp{Last: *resp, Hops: hops}
	putNextHopResp(resp)
	if err != nil {
		out.Failed = simnet.ErrorClass(err)
	} else {
		n.tailWalk(ring.Point(from), m, &out)
	}
	n.CountServedRoute(hops-1, out.Walk != nil)
	return out, nil
}

// tailWalk runs the walk m carries from the owner out found, for from,
// when that owner is a live node this process hosts, m's parameters
// pass core's bound (a zero Lambda fails it: lookup only), the owner is
// at least Lambda past the key and the initiator will not discard the
// answer for its hop budget. The walk is the one ServeWalk runs for a
// WalkReq; a failed one is reported by its class.
func (n *Network) tailWalk(from ring.Point, m routeReq, out *routeResp) {
	p := core.Params{Lambda: m.Lambda, MaxSteps: m.MaxSteps}
	owner := out.Last.Succ
	d0 := ring.Distance(m.Key, owner)
	if !out.Last.Done || out.Hops >= m.MaxHops || p.Delegable() != nil || d0 < p.Lambda || !n.hosts(owner) {
		return
	}
	w, err := n.ServeWalk(owner, from, overlay.WalkReq{D0: d0, Lambda: p.Lambda, MaxSteps: p.MaxSteps})
	out.Walk = &w
	if err != nil {
		out.WalkFailed = simnet.ErrorClass(err)
	}
}
