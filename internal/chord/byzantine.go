package chord

import (
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Byzantine reply forging. The chord RPC payloads are unexported (and
// pooled), so the adversary package cannot synthesize lies itself; this
// file exports the minimal surface a Byzantine interceptor needs:
// recognize the routing RPC (overlay.IsPointerRPC recognizes the shared
// pointer queries) and rewrite the subvertible replies toward
// attacker-chosen peers. Policy — which calls to subvert, and toward
// whom — stays in internal/adversary.

// IsRoutingRPC reports whether msg is a routed-lookup step
// (the next-hop request h(x) resolution consists of).
func IsRoutingRPC(msg simnet.Message) bool {
	_, ok := msg.(nextHopReq)
	return ok
}

// ByzantineReply forges the reply a lying chord node substitutes for
// the genuine handler outcome (resp, err) it produced for req. pick
// chooses the peer the lie steers toward: pick(key, i) returns the
// attacker's i-th choice for the given key (routing requests pass
// their lookup key; key-less pointer queries pass the zero point —
// whether a policy keys its choices on the lookup key at all is the
// caller's call). The third return is false when req is not a subvertible
// chord RPC, in which case the caller must deliver the genuine
// outcome. Forged replies reuse the handler's pooled reply value when
// one exists, so the reply-recycling contract of the lookup loop is
// undisturbed.
func ByzantineReply(req, resp simnet.Message, err error, pick func(key ring.Point, i int) ring.Point) (simnet.Message, error, bool) {
	switch m := req.(type) {
	case nextHopReq:
		// Terminate the lookup immediately at the attacker's choice:
		// the caller accepts Succ as the owner of Key.
		lie := pick(m.Key, 0)
		r, ok := resp.(*nextHopResp)
		if !ok || err != nil {
			r = newNextHopResp()
		}
		*r = nextHopResp{Done: true, Succ: lie}
		return r, nil, true
	case overlay.SuccessorReq, overlay.PredecessorReq:
		lie := pick(0, 0)
		r, ok := resp.(*overlay.PointResp)
		if !ok || err != nil {
			r = overlay.NewPointResp(lie, true)
		}
		r.P, r.Has = lie, true
		return r, nil, true
	case succListReq:
		// Poison the caller's successor list wholesale: stabilization
		// against a Byzantine successor adopts an attacker-chosen list.
		n := maxCandidates
		if genuine, ok := resp.(succListResp); ok && len(genuine.List) > 0 {
			n = len(genuine.List)
		}
		list := make([]ring.Point, 0, n)
		for i := 0; i < n; i++ {
			p := pick(0, i)
			if len(list) > 0 && p == list[len(list)-1] {
				break // pick exhausted its distinct choices
			}
			list = append(list, p)
		}
		return succListResp{List: list}, nil, true
	}
	return nil, nil, false
}
