package dhttest

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Check is an optional check of Run, for the configurations that can
// afford it.
type Check struct {
	name string
	run  func(t *testing.T, name string, mk Factory)
}

// Pieces is Theorem 6 by exhaustion (PiecesMatchAnalyze) on small rings
// built by the factory: n ∈ {2, 3, 4, 9, 24} at three seeds each, a ring
// with two adjacent points (an arc of 1) and a ring with points at 0 and
// 2^64-1, all at the paper's parameters: about 630 trials and 17 builds
// a configuration. That grid suits every configuration, in-process,
// virtual-time, over sockets and across a cluster's processes (a
// partitioned DHT splits each trial's walk and lookup tail across
// them), at well under a second over loopback; the larger grid of
// core's own piece test stays on the oracle.
var Pieces = Check{"PiecesMatchAnalyze", checkPieces}

// starts is a rand.Source that replays a script of starts, then zeros.
type starts struct{ vals []uint64 }

func (s *starts) Uint64() uint64 {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

// Starts returns a rand.Source whose first draw is s and whose later
// draws are 0: a sampler over it runs its first trial from s, and a
// runner that draws several starts at once finds values to draw.
func Starts(s ring.Point) rand.Source { return &starts{vals: []uint64{uint64(s)}} }

// PiecesMatchAnalyze ties one DHT's trials to core.Analyze exactly.
// Within the arc in front of a peer the outcome of a trial is a step
// function of D = d(s, h(s)) that can change only past a threshold
// lambda-1 or C_k, so one trial at D = C_k and one at D = C_k + 1, for
// every arc and every k, find every piece and its owner. trial runs one
// trial from start s and returns the index in r of the peer it chose,
// or -1 if the trial failed. The pieces must add up to the measure
// Analyze assigns each peer, unit for unit, failed trials to
// Unassigned; and each piece's owner must be the one the analyzer's
// rule names. A failure names where, the arc and D.
func PiecesMatchAnalyze(t testing.TB, where string, r *ring.Ring, p core.Params, trial func(s ring.Point) int) {
	t.Helper()
	n := r.Len()
	a, err := core.Analyze(r, p.Lambda, p.MaxSteps)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	measure := make([]uint64, n)
	var unassigned uint64
	for i := 0; i < n; i++ {
		arcLen, first := r.Arc(i), r.NextIndex(i)
		at := func(d uint64) ring.Point { return ring.Sub(r.At(first), d) }
		// Thresholds inside [0, arcLen-1), ascending; the last piece
		// ends at arcLen-1.
		ends := []uint64{arcLen - 1}
		if p.Lambda-1 < arcLen-1 {
			ends = append(ends, p.Lambda-1)
		}
		c, cur := ring.S128Of(p.Lambda), first
		for k := 1; k <= p.MaxSteps; k++ {
			c = c.AddUint(p.Lambda).SubUint(r.Arc(cur))
			cur = r.NextIndex(cur)
			if v, ok := c.Uint64(); ok && v < arcLen-1 {
				ends = append(ends, v)
			}
		}
		slices.Sort(ends)
		ends = slices.Compact(ends)
		start := uint64(0) // first D of the current piece
		for _, end := range ends {
			owner := trial(at(end))
			if got := trial(at(start)); got != owner {
				t.Fatalf("%s arc %d: D=%d chose %d but D=%d of the same piece chose %d",
					where, i, start, got, end, owner)
			}
			if want := thresholdChoice(r, p.Lambda, p.MaxSteps, at(end)); owner != want {
				t.Fatalf("%s arc %d D=%d: the trial chose %d, the analyzer's rule %d", where, i, end, owner, want)
			}
			if owner >= 0 {
				measure[owner] += end - start + 1
			} else {
				unassigned += end - start + 1
			}
			start = end + 1
		}
	}
	if !slices.Equal(measure, a.Measure) || unassigned != a.Unassigned {
		t.Fatalf("%s: the pieces the trials found do not add up to Analyze's assignment\n got %v + %d\nwant %v + %d",
			where, measure, unassigned, a.Measure, a.Unassigned)
	}
}

// thresholdChoice is the analyzer's closed-form rule for one start s:
// the first k with D <= theta_k wins, -1 if none does.
func thresholdChoice(r *ring.Ring, lambda uint64, maxSteps int, s ring.Point) int {
	first := r.Successor(s)
	d := ring.Distance(s, r.At(first))
	if d < lambda {
		return first
	}
	dVal := ring.S128Of(d)
	c := ring.S128Of(lambda)
	cur := first
	for k := 1; k <= maxSteps; k++ {
		c = c.AddUint(lambda).SubUint(r.Arc(cur))
		cur = r.NextIndex(cur)
		if dVal.Cmp(c) <= 0 {
			return cur
		}
	}
	return -1
}

// SettledPieces runs PiecesMatchAnalyze over the live members of an
// overlay whose ring has settled after churn (VerifyRing is nil), each
// start a one-trial sample on the first member's AsDHT, at the paper's
// parameters for the live size. Theorem 6 assumes a stable ring; this
// holds an overlay to it on the ring its churn history left.
func SettledPieces(t testing.TB, where string, net overlay.Network) {
	t.Helper()
	if err := net.VerifyRing(); err != nil {
		t.Fatalf("%s: ring not settled: %v", where, err)
	}
	r, err := ring.New(net.Members())
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	d, err := net.AsDHT(r.At(0))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	p, err := core.DeriveParams(float64(r.Len()), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	where = fmt.Sprintf("%s n=%d %+v", where, r.Len(), p)
	PiecesMatchAnalyze(t, where, r, p, pieceTrial(t, where, d, r, p))
}

// pieceTrial is the trial the piece walk runs on d, whose circle holds
// r's points: each start runs as a one-trial sample of a sampler over
// d and, when d runs trials itself (dht.Trials), as one trial of its
// runner for an exclusive sampler; both must choose the same peer.
func pieceTrial(t testing.TB, where string, d dht.DHT, r *ring.Ring, p core.Params) func(s ring.Point) int {
	w := dht.Walk{Lambda: p.Lambda, MaxSteps: p.MaxSteps}
	return func(s ring.Point) int {
		smp, err := core.NewWithParams(d, rand.New(Starts(s)), p, core.Config{MaxTrials: 1})
		if err != nil {
			t.Fatal(err)
		}
		chosen := -1
		peer, err := smp.Sample()
		switch {
		case err == nil:
			if chosen = r.IndexOf(peer.Point); chosen < 0 {
				t.Fatalf("%s s=%v: sampled non-member %v", where, s, peer.Point)
			}
		case !errors.Is(err, core.ErrTrialsExhausted):
			t.Fatalf("%s s=%v: %v", where, s, err)
		}
		if tr, ok := d.(dht.Trials); ok {
			run := tr.Trials(w, func() ring.Point { return s }, true)
			got := run.Trial()
			run.Flush()
			if got.Err != nil {
				t.Fatalf("%s s=%v: exclusive runner: %v", where, s, got.Err)
			}
			if got.Accepted != (chosen >= 0) || got.Accepted && got.Peer.Point != peer.Point {
				t.Fatalf("%s s=%v: exclusive runner accepted=%t %v, sampler chose %d", where, s, got.Accepted, got.Peer.Point, chosen)
			}
		}
		return chosen
	}
}

// checkPieces runs PiecesMatchAnalyze over the rings Pieces names, with
// pieceTrial's trial on a DHT the factory builds for each.
func checkPieces(t *testing.T, name string, mk Factory) {
	type shape struct {
		what string
		pts  []ring.Point
	}
	var shapes []shape
	for _, n := range []int{2, 3, 4, 9, 24} {
		for seed := uint64(0); seed < 3; seed++ {
			r, err := ring.Generate(rand.New(rand.NewPCG(seed*977+uint64(n), 43)), n)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, shape{fmt.Sprintf("seed %d", seed), r.Points()})
		}
	}
	r, err := ring.Generate(rand.New(rand.NewPCG(44, 45)), 8)
	if err != nil {
		t.Fatal(err)
	}
	adjacent := r.Points()
	if p := adjacent[3] + 1; r.IndexOf(p) < 0 {
		adjacent = append(adjacent, p)
	} else {
		adjacent = append(adjacent, adjacent[3]-1)
	}
	ends := append(r.Points()[:7], 0, math.MaxUint64)
	shapes = append(shapes, shape{"adjacent points", adjacent}, shape{"points at 0 and 2^64-1", ends})

	trials := 0
	for _, sh := range shapes {
		r, err := ring.New(sh.pts)
		if err != nil {
			t.Fatalf("%s: %v", sh.what, err)
		}
		d, err := mk(r.Points())
		if err != nil {
			t.Fatalf("factory: %v", err)
		}
		p, err := core.DeriveParams(float64(r.Len()), 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("%s, %s, n=%d %+v", name, sh.what, r.Len(), p)
		trial := pieceTrial(t, where, d, r, p)
		PiecesMatchAnalyze(t, where, r, p, func(s ring.Point) int {
			trials++
			return trial(s)
		})
	}
	t.Logf("%d trials over %d rings", trials, len(shapes))
}
