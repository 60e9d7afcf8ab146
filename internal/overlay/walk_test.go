package overlay_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// walkBed is a small static overlay of every backend and, for each, the
// caller's view core's own walk runs over.
type walkBed struct {
	points []ring.Point
	nets   []overlay.Network
	views  []*overlay.DHT
}

func newWalkBed(t testing.TB, n int) *walkBed {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(83, 89)), n)
	if err != nil {
		t.Fatal(err)
	}
	b := &walkBed{points: r.Points()}
	for _, name := range overlays.Names {
		net, err := overlays.Build(name, overlays.Config{}, simnet.NewDirect(), b.points, nil)
		if err != nil {
			t.Fatal(err)
		}
		view, err := net.AsDHT(b.points[0])
		if err != nil {
			t.Fatal(err)
		}
		b.nets, b.views = append(b.nets, net), append(b.views, view)
	}
	return b
}

// FuzzServeWalk sends WalkReqs with fuzzed d0, lambda, MaxSteps, sender
// and first peer to a small static overlay of every backend. The
// serving side must never panic, must refuse the parameters core's
// bound refuses, must never walk more than two laps (the distance
// before its last step), and for every request it accepts must answer
// what core's own walk from the same peer gives.
func FuzzServeWalk(f *testing.F) {
	const n = 12
	b := newWalkBed(f, n)
	f.Add(uint64(1)<<63, uint64(1)<<60, 20, uint64(5), uint64(3))
	f.Add(uint64(0), uint64(1), 1<<40, uint64(1)<<63, uint64(7))
	f.Add(^uint64(0), uint64(4), int(^uint(0)>>1), uint64(9), uint64(0))
	f.Add(uint64(12345), uint64(0), 6, uint64(1), uint64(2))
	f.Add(uint64(12345), uint64(1)<<62, 8, uint64(1), uint64(2))
	f.Add(uint64(99), uint64(1)<<50, 0, uint64(2), uint64(1)<<63|5)
	f.Fuzz(func(t *testing.T, d0, lambda uint64, maxSteps int, sender, first uint64) {
		// first picks a member, or with its top bit set is a raw point.
		p := ring.Point(first)
		if first>>63 == 0 {
			p = b.points[first%n]
		}
		member := slices.Contains(b.points, p)
		params := core.Params{Lambda: lambda, MaxSteps: maxSteps}
		for i, net := range b.nets {
			raw, err := net.Transport().Call(simnet.NodeID(sender), simnet.NodeID(p), overlay.WalkReq{D0: d0, Lambda: lambda, MaxSteps: maxSteps})
			switch {
			case !member:
				if !errors.Is(err, simnet.ErrUnknownNode) {
					t.Fatalf("%s: walk from non-member %v: %v, want ErrUnknownNode", overlays.Names[i], p, err)
				}
				continue
			case params.Delegable() != nil:
				if !errors.Is(err, core.ErrWalkBound) {
					t.Fatalf("%s: %+v served: %v, want ErrWalkBound", overlays.Names[i], params, err)
				}
				continue
			case err != nil:
				t.Fatalf("%s: %+v from %v: %v", overlays.Names[i], params, p, err)
			}
			got := raw.(overlay.WalkResp)
			if got.Steps-1 > 2*n {
				t.Fatalf("%s: walked %d steps around a ring of %d", overlays.Names[i], got.Steps, n)
			}
			s, err := core.NewWithParams(b.views[i], nil, params, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var tr core.Trace
			want, ok, err := s.Walk(b.views[i], dht.Peer{Point: p}, d0, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if got.Accepted != ok || (ok && got.P != want.Point) || got.Steps != tr.Steps || got.Pruned != (tr.Pruned > 0) {
				t.Fatalf("%s: served %+v; core's walk: %v accepted=%t %+v", overlays.Names[i], got, want.Point, ok, tr)
			}
		}
	})
}

// TestServeWalkRingOfOne: a node that is its own successor ends a
// served walk with an error. Every step there is a whole lap that the
// walk's distance never sees, so without the check a request could
// keep the serving process walking for 2^62 steps within the bound.
func TestServeWalkRingOfOne(t *testing.T) {
	t.Parallel()
	for _, name := range overlays.Names {
		net, err := overlays.Build(name, overlays.Config{}, simnet.NewDirect(), []ring.Point{42}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = net.Transport().Call(7, 42, overlay.WalkReq{D0: 1 << 62, Lambda: 1, MaxSteps: 1 << 62})
		if err == nil {
			t.Errorf("%s: a walk around a ring of one was served", name)
		}
		if w := net.Served(); w.Walks != 1 || w.Steps != 0 {
			t.Errorf("%s: served walks %+v, want one walk of no steps", name, w)
		}
	}
}

// TestWalkDelegateOnlyAcrossProcesses: only a membership with members
// hosted by other processes offers a RemoteWalk, and it sends nothing
// for a walk whose first peer is hosted here.
func TestWalkDelegateOnlyAcrossProcesses(t *testing.T) {
	t.Parallel()
	b := newWalkBed(t, 16)
	for i, name := range overlays.Names {
		if del := b.views[i].Delegate(); del.Walk != nil || del.H != nil {
			t.Errorf("%s: a single-process overlay offers %+v", name, del)
		}
		net, err := overlays.Build(name, overlays.Config{}, simnet.NewDirect(), b.points,
			func(p ring.Point) bool { return p != b.points[5] })
		if err != nil {
			t.Fatal(err)
		}
		view, err := net.AsDHT(b.points[0])
		if err != nil {
			t.Fatal(err)
		}
		del := view.Delegate()
		walk := del.Walk
		if walk == nil {
			t.Fatalf("%s: a partitioned overlay offers no RemoteWalk", name)
		}
		// Route tails are chord's: kademlia's lookups stay at the caller.
		if _, tails := net.(overlay.TailRouter); (del.H != nil) != tails {
			t.Errorf("%s: partitioned overlay offers a RemoteLookup: %t, its router serves route tails: %t", name, del.H != nil, tails)
		}
		params := core.Params{Lambda: 1 << 58, MaxSteps: 10}
		before := view.Meter().Snapshot()
		if _, sent, err := walk(dht.Peer{Point: b.points[3]}, 1<<59, params); sent || err != nil {
			t.Errorf("%s: walk from a hosted peer: sent=%t, %v", name, sent, err)
		}
		if view.Meter().Snapshot() != before {
			t.Errorf("%s: a walk kept here charged the meter", name)
		}
		// Nobody behind this transport hosts points[5]: the request is
		// sent and fails as an unknown peer, the class Next reports.
		if _, sent, err := walk(dht.Peer{Point: b.points[5]}, 1<<59, params); !sent || !errors.Is(err, dht.ErrUnknownPeer) {
			t.Errorf("%s: walk from a peer hosted elsewhere: sent=%t, %v", name, sent, err)
		}
	}
}
