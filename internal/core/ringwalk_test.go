package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// walkOracle builds the oracle FuzzOracleLaneWalk walks: kind 0 is a
// uniform ring of up to 2 000 points, 1 a virtual-owner ring, 2 a ring
// of one, two or three points, 3 a ring with points at 0 and 2^64-1.
func walkOracle(t *testing.T, kind byte, seed uint64) *dht.Oracle {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x3a1c))
	var o *dht.Oracle
	var err error
	switch kind % 4 {
	case 0:
		o, err = dht.GenerateOracle(rng, 1+int(seed%2000))
	case 1:
		o, err = dht.NewVirtualOracle(rng, 1+int(seed%40), 1+int(seed%5))
	case 2:
		o, err = dht.GenerateOracle(rng, 1+int(seed%3))
	default:
		points := []ring.Point{0, math.MaxUint64}
		for i := 0; i < int(seed%6); i++ {
			points = append(points, ring.Point(rng.Uint64()))
		}
		var r *ring.Ring
		if r, err = ring.New(points); err == nil {
			o = dht.NewOracle(r)
		}
	}
	if err != nil {
		t.Skip(err) // a repeated random point; no ring to walk
	}
	return o
}

// FuzzOracleLaneWalk pins WalkRing to Walk: from one first peer and
// distance d0 >= lambda, WalkRing over an oracle lane and Walk over
// another lane's Next must give the same peer, acceptance, steps,
// pruning and error, and charge the meter the same once the lanes are
// flushed. The fuzzer picks the ring (uniform, virtual owners, n <= 3,
// points at 0 and 2^64-1), the first peer (anywhere, one of the last
// four so the walk wraps the array's end, or not a member at all),
// lambda (around the ring's ideal one, 1, 2^63 or 2^64-1), MaxSteps and
// d0: free, or placing the horizon one unit under, at or over the point
// the walk reaches after some steps.
func FuzzOracleLaneWalk(f *testing.F) {
	for kind := byte(0); kind < 4; kind++ {
		for _, seed := range []uint64{1, 2, 3, 977, 2025} {
			f.Add(kind, seed, byte(0), uint64(seed*7), byte(0), uint64(5), byte(3), uint64(0))
			f.Add(kind, seed, byte(1), uint64(2), byte(2), uint64(40), byte(7), uint64(1))
			f.Add(kind, seed, byte(2), uint64(1), byte(1), uint64(40), byte(4+2), uint64(2))
			f.Add(kind, seed, byte(1), uint64(0), byte(0), uint64(30), byte(4+2), uint64(1))
			f.Add(kind, seed, byte(0), uint64(5), byte(1), uint64(9), byte(4+0), uint64(4))
			f.Add(kind, seed, byte(1), uint64(1), byte(4), uint64(3), byte(0), uint64(0))
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, seed uint64, where byte, at uint64, lam byte, steps uint64, mode byte, extra uint64) {
		o := walkOracle(t, kind, seed)
		r, n := o.Ring(), o.Size()
		var first dht.Peer
		switch where % 3 {
		case 0:
			first = o.PeerByIndex(int(at % uint64(n)))
		case 1:
			first = o.PeerByIndex(n - 1 - int(at%uint64(min(n, 4))))
		default:
			// A point no peer holds, with an owner that is one.
			x := ring.Point(at)
			if r.IndexOf(x) >= 0 {
				x = ring.Add(x, 1)
			}
			if r.IndexOf(x) >= 0 {
				t.Skip("two adjacent member points")
			}
			first = dht.Peer{Point: x, Owner: int(at % uint64(n))}
		}
		p := Params{MaxSteps: int(steps % uint64(4*n+8))}
		ideal := ring.FracToUnits(1 / (7 * float64(n)))
		switch lam % 5 {
		case 0:
			p.Lambda = ideal
		case 1:
			p.Lambda = max(1, ideal/(1+extra%16))
		case 2:
			p.Lambda = ideal * (1 + extra%8)
		case 3:
			p.Lambda = 1 << 63
		default:
			p.Lambda = []uint64{1, math.MaxUint64}[steps%2]
		}
		if p.Lambda == 0 {
			p.Lambda = 1
		}
		d0, ok := p.Lambda+extra, p.Lambda+extra >= p.Lambda
		if i := r.IndexOf(first.Point); mode >= 4 && i >= 0 {
			// Put the horizon (MaxSteps+1)*lambda one unit under, at or
			// over where the walk stands after k steps.
			d0, ok = horizonD0(r, i, p, int(extra%4), int(mode%3)-1)
		}
		if !ok {
			t.Skip("d0 out of range")
		}

		nextLane, _ := o.Lane()
		ringLane, _ := o.Lane()
		before := o.Meter().Snapshot()
		var wantTr Trace
		want, wantOK, wantErr := p.Walk(nextLane, first, d0, &wantTr)
		nextLane.Flush()
		mid := o.Meter().Snapshot()
		var gotTr Trace
		got, gotOK, gotErr := p.WalkRing(ringLane.(dht.RingLane), first, d0, &gotTr)
		ringLane.Flush()
		after := o.Meter().Snapshot()

		desc := func() string {
			return fmt.Sprintf("n=%d owners=%d first=%+v d0=%d %+v", n, o.Owners(), first, d0, p)
		}
		if got != want || gotOK != wantOK || gotTr != wantTr {
			t.Fatalf("%s: WalkRing gave %+v %v %+v, Walk %+v %v %+v", desc(), got, gotOK, gotTr, want, wantOK, wantTr)
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && (gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, dht.ErrUnknownPeer)) {
			t.Fatalf("%s: WalkRing error %v, Walk %v", desc(), gotErr, wantErr)
		}
		if c, w := after.Sub(mid), mid.Sub(before); c != w {
			t.Fatalf("%s: WalkRing's lane charged %+v, Walk's %+v", desc(), c, w)
		}
		if w := int64(wantTr.Steps); mid.Sub(before).Calls != w {
			t.Fatalf("%s: %d steps charged %d calls", desc(), w, mid.Sub(before).Calls)
		}
	})
}

// horizonD0 is the d0 at which a walk from index i stands delta units
// past the horizon (MaxSteps+1)*lambda after k steps, and whether that
// d0 is one a walk can start at: at least lambda and below 2^64.
func horizonD0(r *ring.Ring, i int, p Params, k, delta int) (uint64, bool) {
	walked := ring.S128Of(0)
	for ; k > 0; k-- {
		next := r.NextIndex(i)
		walked = walked.AddUint(ring.Distance(r.At(i), r.At(next)))
		i = next
	}
	d := horizon(p.Lambda, p.MaxSteps).Sub(walked)
	switch {
	case delta < 0:
		d = d.SubUint(1)
	case delta > 0:
		d = d.AddUint(1)
	}
	if d.Cmp(ring.S128Of(p.Lambda)) < 0 {
		return 0, false
	}
	return d.Uint64()
}

// TestExclusiveForkWalksInRing: an exclusive fork over the oracle runs
// its walks in its lane's ring. A shareable Fork, and an exclusive fork
// whose lane does not hold its ring, walk over Next; the same-sample
// tests in lane_test.go compare the two.
func TestExclusiveForkWalksInRing(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 5, 4096)
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(3, 3)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if exclusiveFork(t, s, 1).remote == nil {
		t.Error("an exclusive fork over the oracle does not walk its lane's ring")
	}
	shared, err := s.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	if shared.(*Sampler).remote != nil {
		t.Error("a shareable fork walks a ring")
	}
	plain, err := NewWithParams(failingLaner{Oracle: o, failAt: math.MaxInt}, nil, s.Params(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := plain.ForkExclusive(1)
	if err != nil {
		t.Fatal(err)
	}
	if fs := f.(*Sampler); fs.lane == nil || fs.remote != nil {
		t.Errorf("exclusive fork over a lane without its ring: lane %v, ring walk %t", fs.lane, fs.remote != nil)
	}
}

// BenchmarkOracleLaneWalk times one trial of an exclusive fork on a
// 10⁶-point oracle, walked two ways: Walk over the lane's Next, and
// WalkRing over the lane's ring. Each trial's start is warmed eight at a
// time and looked up through the lane's H, as the fork does, so the
// walk starts where the lookup left the ring in cache; the parameters
// are a sampler's own, from its size estimate. An op is 4 096 trials;
// ns/trial is the number to read, steps/trial what a trial walks.
func BenchmarkOracleLaneWalk(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	o, err := dht.GenerateOracle(rng, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		b.Fatal(err)
	}
	p := s.Params()
	xs := make([]ring.Point, 1<<16)
	for i := range xs {
		xs[i] = ring.Point(rng.Uint64())
	}
	const perOp = 1 << 12
	for _, inRing := range []bool{false, true} {
		name := "next"
		if inRing {
			name = "ring"
		}
		b.Run(name, func(b *testing.B) {
			lane, _ := o.Lane()
			warmer, rl := lane.(dht.Warmer), lane.(dht.RingLane)
			var tr Trace
			sink, at := 0, 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < perOp; j += lookAhead {
					window := xs[at : at+lookAhead]
					at = (at + lookAhead) % len(xs)
					warmer.Warm(window)
					for _, x := range window {
						first, _ := lane.H(x)
						d0 := ring.Distance(x, first.Point)
						if d0 < p.Lambda {
							sink += first.Owner
							continue
						}
						var peer dht.Peer
						if inRing {
							peer, _, err = p.WalkRing(rl, first, d0, &tr)
						} else {
							peer, _, err = p.Walk(lane, first, d0, &tr)
						}
						if err != nil {
							b.Fatal(err)
						}
						sink += peer.Owner
					}
				}
			}
			lane.Flush()
			trials := float64(b.N * perOp)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/trials, "ns/trial")
			b.ReportMetric(float64(tr.Steps)/trials, "steps/trial")
			if sink == -1 {
				b.Log(sink)
			}
		})
	}
}
