package kademlia

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// orderBed is one network of TestLookupIgnoresReplyOrder with the hop
// log of its transport.
type orderBed struct {
	name  string
	net   *Network
	trace *obs.Trace
}

// newOrderBed builds a static network over pts whose FIND_NODE replies
// reach the caller rearranged by reorder (nil: as the handler answered).
func newOrderBed(t *testing.T, name string, k int, pts []ring.Point, reorder func(c []ring.Point, target ring.Point)) *orderBed {
	t.Helper()
	tr := simnet.NewDirect()
	if reorder != nil {
		tr.SetInterceptor(func(_, _ simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
			if req, ok := msg.(findNodeReq); ok && err == nil {
				reorder(resp.(*findNodeResp).Closest, req.Target)
			}
			return resp, err
		})
	}
	net, err := BuildStatic(Config{BucketSize: k}, tr, pts)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace()
	tr.SetTrace(trace)
	return &orderBed{name: name, net: net, trace: trace}
}

// hopLog is the trace without its wall times.
func (b *orderBed) hopLog() []obs.Hop {
	hops := b.trace.Hops()
	for i := range hops {
		hops[i].WallNanos = 0
	}
	return hops
}

// TestLookupIgnoresReplyOrder carries the argument that a FIND_NODE
// reply may come as a set: every reader places its ids one by one.
// Three networks differ only in the order their replies reach the
// caller — as the handler answered, sorted by XOR distance to the
// target (the order the handler used to answer in), and that order
// reversed — and run the same history of lookups, owner resolutions,
// joins, crashes, refreshes and samples. After every operation the
// results and the hop logs (from, to, RPC, outcome) must agree, and at
// the end every member's table, entry for entry.
func TestLookupIgnoresReplyOrder(t *testing.T) {
	t.Parallel()
	sorted := func(c []ring.Point, target ring.Point) { orderByXor(c, target) }
	reversed := func(c []ring.Point, target ring.Point) {
		orderByXor(c, target)
		slices.Reverse(c)
	}
	for _, k := range []int{1, 2, 3, 16, 40} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			t.Parallel()
			pts := testRing(t, 90+uint64(k), 200).Points()
			beds := []*orderBed{
				newOrderBed(t, "as answered", k, pts[:120], nil),
				newOrderBed(t, "sorted", k, pts[:120], sorted),
				newOrderBed(t, "reversed", k, pts[:120], reversed),
			}
			rng := rand.New(rand.NewPCG(91, uint64(k)))
			joiners := pts[120:]
			for op := 0; op < 160; op++ {
				members := beds[0].net.Members()
				from := members[rng.IntN(len(members))]
				x := ring.Point(rng.Uint64())
				var what string
				var apply func(n *Network) string
				switch c := rng.IntN(10); {
				case c < 3:
					what = fmt.Sprintf("FindClosest(%v, %v)", from, x)
					apply = func(n *Network) string {
						res, err := n.FindClosest(from, x)
						return fmt.Sprintf("%+v %v", res, err)
					}
				case c < 5:
					what = fmt.Sprintf("ResolveOwner(%v, %v)", from, x)
					apply = func(n *Network) string {
						owner, stats, err := n.ResolveOwner(from, x)
						return fmt.Sprintf("%v %+v %v", owner, stats, err)
					}
				case c < 6 && len(joiners) > 0:
					id := joiners[0]
					joiners = joiners[1:]
					what = fmt.Sprintf("JoinVia(%v, %v)", id, from)
					apply = func(n *Network) string { return fmt.Sprint(n.JoinVia(id, from)) }
				case c < 7 && len(members) > 16:
					what = fmt.Sprintf("Crash(%v)", from)
					apply = func(n *Network) string { return fmt.Sprint(n.Crash(from)) }
				case c < 8:
					bucket := rng.IntN(idBits)
					what = fmt.Sprintf("RefreshNode(%v, %d)", from, bucket)
					apply = func(n *Network) string { return fmt.Sprint(n.RefreshNode(from, bucket)) }
				default:
					seed := rng.Uint64()
					what = fmt.Sprintf("4 samples from %v, seed %d", from, seed)
					apply = func(n *Network) string { return sampleLog(t, n, from, seed) }
				}
				want, wantHops := apply(beds[0].net), beds[0].hopLog()
				for _, b := range beds[1:] {
					if got := apply(b.net); got != want {
						t.Fatalf("op %d %s: %s network returned\n%s\n%s network\n%s", op, what, b.name, got, beds[0].name, want)
					}
					if got := b.hopLog(); !slices.Equal(got, wantHops) {
						t.Fatalf("op %d %s: %s network's hop log differs from the %s network's", op, what, b.name, beds[0].name)
					}
				}
			}
			for _, id := range beds[0].net.Members() {
				ws, _ := beds[0].net.LiveSlot(id)
				for _, b := range beds[1:] {
					gs, ok := b.net.LiveSlot(id)
					if !ok {
						t.Fatalf("%s network lost member %v", b.name, id)
					}
					for bucket := 0; bucket < idBits; bucket++ {
						if got, want := b.net.bucketIDs(gs, bucket), beds[0].net.bucketIDs(ws, bucket); !slices.Equal(got, want) {
							t.Fatalf("%s network: bucket %d of %v differs:\n got %v\nwant %v", b.name, bucket, id, got, want)
						}
					}
				}
			}
		})
	}
}

// sampleLog draws four samples from a sampler over n seen from caller,
// at the paper's parameters for the live size, and formats the peers,
// the per-sample traces and the sampler's effort.
func sampleLog(t *testing.T, n *Network, caller ring.Point, seed uint64) string {
	t.Helper()
	d, err := n.AsDHT(caller)
	if err != nil {
		return err.Error()
	}
	p, err := core.DeriveParams(float64(n.NumAlive()), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewWithParams(d, rand.New(rand.NewPCG(seed, seed)), p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < 4; i++ {
		peer, trace, err := s.SampleTraced()
		out = append(out, fmt.Sprintf("%+v %+v %v", peer, trace, err))
	}
	return fmt.Sprintf("%v %+v", out, s.Stats())
}
