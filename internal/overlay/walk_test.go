package overlay_test

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

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
		w := dht.Walk{Lambda: lambda, MaxSteps: maxSteps}
		for i, net := range b.nets {
			raw, err := net.Transport().Call(simnet.NodeID(sender), simnet.NodeID(p), overlay.WalkReq{D0: d0, Lambda: lambda, MaxSteps: maxSteps})
			switch {
			case !member:
				if !errors.Is(err, simnet.ErrUnknownNode) {
					t.Fatalf("%s: walk from non-member %v: %v, want ErrUnknownNode", overlays.Names[i], p, err)
				}
				continue
			case w.Delegable() != nil:
				if !errors.Is(err, dht.ErrWalkBound) {
					t.Fatalf("%s: %+v served: %v, want ErrWalkBound", overlays.Names[i], w, err)
				}
				continue
			case err != nil:
				t.Fatalf("%s: %+v from %v: %v", overlays.Names[i], w, p, err)
			}
			got := raw.(overlay.WalkResp)
			if got.Steps-1 > 2*n {
				t.Fatalf("%s: walked %d steps around a ring of %d", overlays.Names[i], got.Steps, n)
			}
			want := w.Over(b.views[i].Next, dht.Peer{Point: p}, d0)
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			if got.Accepted != want.Accepted || (want.Accepted && got.P != want.Peer.Point) || got.Steps != want.Steps || got.Pruned != want.Pruned {
				t.Fatalf("%s: served %+v; the walk in process: %+v", overlays.Names[i], got, want)
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

// TestTrialsSplitOnlyAcrossProcesses: only a membership with members
// hosted by other processes runs trials its own way; it walks from here
// a trial whose first peer is hosted here, and sends the walk of one
// whose first peer is hosted elsewhere, where it fails as an unknown
// peer, the class Next reports.
func TestTrialsSplitOnlyAcrossProcesses(t *testing.T) {
	t.Parallel()
	b := newWalkBed(t, 16)
	w := dht.Walk{Lambda: 1 << 40, MaxSteps: 10}
	var starts []ring.Point
	draw := func() ring.Point { x := starts[0]; starts = starts[1:]; return x }
	stepwise := reflect.TypeOf(dht.NewRunner(nil, w, nil))
	for i, name := range overlays.Names {
		if r := b.views[i].Trials(w, draw, true); reflect.TypeOf(r) != stepwise {
			t.Errorf("%s: a single-process overlay runs its trials in a %T", name, r)
		}
		tr := simnet.NewDirect()
		walkReqs := 0
		tr.SetInterceptor(func(_, _ simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
			if _, ok := msg.(overlay.WalkReq); ok {
				walkReqs++
			}
			return resp, err
		})
		net, err := overlays.Build(name, overlays.Config{}, tr, b.points,
			func(p ring.Point) bool { return p != b.points[5] })
		if err != nil {
			t.Fatal(err)
		}
		view, err := net.AsDHT(b.points[0])
		if err != nil {
			t.Fatal(err)
		}
		r := view.Trials(w, draw, true)
		if reflect.TypeOf(r) == stepwise {
			t.Fatalf("%s: a partitioned overlay runs its trials stepwise", name)
		}
		starts = []ring.Point{ring.Sub(b.points[3], 1<<41), ring.Sub(b.points[5], 1<<41)}
		if got := r.Trial(); got.H.Point != b.points[3] || got.Err != nil || got.Steps != 1 || walkReqs != 0 {
			t.Errorf("%s: trial from a hosted peer: %+v with %d WalkReqs", name, got, walkReqs)
		}
		// Nobody behind this transport hosts points[5]: the walk is sent,
		// not walked from here, and fails as an unknown peer.
		got := r.Trial()
		if got.H.Point != b.points[5] || !errors.Is(got.Err, dht.ErrUnknownPeer) || simnet.ErrorClass(got.Err) != "unknown" || !strings.HasPrefix(got.Err.Error(), "walk from") {
			t.Errorf("%s: trial from a peer hosted elsewhere: %+v", name, got)
		}
	}
}

// TestNextUnknownPeerKeepsItsClass: a step onto a crashed node fails as
// an unknown peer with the transport's class, "unknown", in process as
// in a walk another process serves.
func TestNextUnknownPeerKeepsItsClass(t *testing.T) {
	t.Parallel()
	b := newWalkBed(t, 16)
	w := dht.Walk{Lambda: 1 << 58, MaxSteps: 64}
	for i, name := range overlays.Names {
		net, view := b.nets[i], b.views[i]
		if err := net.Crash(b.points[4]); err != nil {
			t.Fatal(err)
		}
		_, err := view.Next(dht.Peer{Point: b.points[4]})
		if !errors.Is(err, dht.ErrUnknownPeer) || simnet.ErrorClass(err) != "unknown" {
			t.Errorf("%s: next of a crashed peer: %v (class %s)", name, err, simnet.ErrorClass(err))
		}
		// A walk from points[3], whose successor pointer still names the
		// crashed node, fails on its second step, here and served.
		local := w.Over(view.Next, dht.Peer{Point: b.points[3]}, w.Lambda+1)
		_, served := net.Transport().Call(simnet.NodeID(b.points[0]), simnet.NodeID(b.points[3]), overlay.WalkReq{D0: w.Lambda + 1, Lambda: w.Lambda, MaxSteps: w.MaxSteps})
		if local.Err == nil || local.Steps != 1 || simnet.ErrorClass(local.Err) != simnet.ErrorClass(served) {
			t.Errorf("%s: walk onto a crashed peer: in process %+v (class %s), served %v (class %s)",
				name, local, simnet.ErrorClass(local.Err), served, simnet.ErrorClass(served))
		}
	}
}
