package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

func genRing(t *testing.T, seed uint64, n int) *ring.Ring {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// paramsForN derives the paper's parameters assuming a perfect size
// estimate (nhat = n, gamma1 = 1).
func paramsForN(t *testing.T, n int) Params {
	t.Helper()
	p, err := DeriveParams(float64(n), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chooseAt is an independent reference implementation of the
// deterministic part of Figure 1: given a starting point s it walks the
// ring exactly as the algorithm would (running T in 128-bit arithmetic)
// and returns the index of the chosen peer, or -1 if the trial fails.
// It shares no code with Analyze, which computes the same map through
// closed-form thresholds — the tests cross-validate the two.
func chooseAt(r *ring.Ring, lambda uint64, maxSteps int, s ring.Point) int {
	first := r.Successor(s)
	d0 := ring.Distance(s, r.At(first))
	if d0 < lambda {
		return first
	}
	t := ring.S128Of(d0).SubUint(lambda)
	cur := first
	for step := 0; step < maxSteps; step++ {
		next := r.NextIndex(cur)
		arc := r.Arc(cur)
		t = t.AddUint(arc).SubUint(lambda)
		if !t.IsPos() {
			return next
		}
		cur = next
	}
	return -1
}

func TestAnalyzeTheorem6Exactness(t *testing.T) {
	t.Parallel()
	// Theorem 6: each peer receives measure exactly lambda. In integer
	// arithmetic the deviation is bounded by boundary rounding; assert it
	// is negligible relative to lambda (< 2^-30 relative) and that the
	// trial success probability is n*lambda as Theorem 7 uses.
	for _, n := range []int{64, 256, 1024} {
		for seed := uint64(0); seed < 3; seed++ {
			r := genRing(t, seed*101+uint64(n), n)
			p := paramsForN(t, n)
			a, err := Analyze(r, p.Lambda, p.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			rel := float64(a.MaxDeviation) / float64(p.Lambda)
			if rel > math.Pow(2, -30) {
				t.Errorf("n=%d seed=%d: MaxDeviation %d of lambda %d (rel %.3e)",
					n, seed, a.MaxDeviation, p.Lambda, rel)
			}
			wantSuccess := float64(n) * ring.UnitsToFrac(p.Lambda)
			if math.Abs(a.SuccessProbability-wantSuccess) > 1e-9 {
				t.Errorf("n=%d: success probability %v, want n*lambda = %v",
					n, a.SuccessProbability, wantSuccess)
			}
		}
	}
}

func TestAnalyzeMatchesReferenceWalk(t *testing.T) {
	t.Parallel()
	// Cross-validate the closed-form analyzer against the literal walk
	// on a per-point basis: accumulate reference counts over a fine
	// deterministic grid plus random points, then check every grid cell
	// agrees with the analyzer's piecewise structure by comparing
	// aggregate measures on random sub-intervals.
	const n = 128
	r := genRing(t, 9, n)
	p := paramsForN(t, n)
	a, err := Analyze(r, p.Lambda, p.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	counts := make(map[int]uint64, n)
	var unassigned uint64
	const trials = 100000
	for i := 0; i < trials; i++ {
		s := ring.Point(rng.Uint64())
		if idx := chooseAt(r, p.Lambda, p.MaxSteps, s); idx >= 0 {
			counts[idx]++
		} else {
			unassigned++
		}
	}
	// Monte Carlo agreement: each peer's empirical share must be within
	// 5 sigma of Measure[i]/2^64.
	for i := 0; i < n; i++ {
		want := ring.UnitsToFrac(a.Measure[i])
		got := float64(counts[i]) / trials
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 5*sigma+1e-9 {
			t.Errorf("peer %d: empirical %.6f vs analyzer %.6f (sigma %.6f)", i, got, want, sigma)
		}
	}
	wantUn := ring.UnitsToFrac(a.Unassigned)
	gotUn := float64(unassigned) / trials
	sigmaUn := math.Sqrt(wantUn*(1-wantUn)/trials) + 1e-9
	if math.Abs(gotUn-wantUn) > 5*sigmaUn {
		t.Errorf("unassigned: empirical %.6f vs analyzer %.6f", gotUn, wantUn)
	}
}

func TestAnalyzeExactPointwiseAgreement(t *testing.T) {
	t.Parallel()
	// Strong exactness check on a small ring: recompute the assignment by
	// running the reference walk at every breakpoint-adjacent point. We
	// verify the analyzer's measure by integrating chooseAt over each
	// arc in spans, exploiting that within an arc the chosen peer is a
	// monotone step function of D: find the exact boundaries by binary
	// search and compare total measure per peer.
	const n = 16
	r := genRing(t, 21, n)
	p := paramsForN(t, n)
	a, err := Analyze(r, p.Lambda, p.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	measure := make([]uint64, n)
	var unassigned uint64
	for i := 0; i < n; i++ {
		arcLen := r.Arc(i)
		// Walk D upward through the arc's decision regions. The chosen
		// peer for D is constant on runs; find each run's end by binary
		// search on "same decision as run start".
		var d uint64
		for d < arcLen {
			s := ring.Sub(r.At(r.NextIndex(i)), d)
			choice := chooseAt(r, p.Lambda, p.MaxSteps, s)
			// Binary search the largest e >= d with the same choice.
			lo, hi := d, arcLen-1
			for lo < hi {
				mid := lo + (hi-lo+1)/2
				sm := ring.Sub(r.At(r.NextIndex(i)), mid)
				if chooseAt(r, p.Lambda, p.MaxSteps, sm) == choice {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			runLen := lo - d + 1
			if choice >= 0 {
				measure[choice] += runLen
			} else {
				unassigned += runLen
			}
			d = lo + 1
		}
	}
	for i := 0; i < n; i++ {
		if measure[i] != a.Measure[i] {
			t.Errorf("peer %d: reference measure %d, analyzer %d", i, measure[i], a.Measure[i])
		}
	}
	if unassigned != a.Unassigned {
		t.Errorf("unassigned: reference %d, analyzer %d", unassigned, a.Unassigned)
	}
}

func TestAnalyzeTruncationWithZeroSteps(t *testing.T) {
	t.Parallel()
	// With no walk steps allowed, only the "small interval" case assigns:
	// each peer gets min(arc, lambda) from its own arc.
	const n = 64
	r := genRing(t, 33, n)
	p := paramsForN(t, n)
	a, err := Analyze(r, p.Lambda, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arcLen := r.Arc(r.PrevIndex(i))
		want := arcLen
		if p.Lambda < want {
			want = p.Lambda
		}
		if a.Measure[i] != want {
			t.Errorf("peer %d: measure %d, want min(arc, lambda) = %d", i, a.Measure[i], want)
		}
	}
	if a.Unassigned == 0 {
		t.Error("expected unassigned measure with zero steps")
	}
}

func TestAnalyzeUnlimitedStepsLeaveNothingUnassigned(t *testing.T) {
	t.Parallel()
	// With maxSteps = n the walk can always reach the deficit peer;
	// since n*lambda < 1 strictly, some measure must still be unassigned
	// (the circle has more measure than n*lambda).
	const n = 64
	r := genRing(t, 41, n)
	p := paramsForN(t, n)
	a, err := Analyze(r, p.Lambda, n)
	if err != nil {
		t.Fatal(err)
	}
	// Every peer saturates at lambda (within rounding slack of steps).
	for i := 0; i < n; i++ {
		var dev uint64
		if a.Measure[i] > p.Lambda {
			dev = a.Measure[i] - p.Lambda
		} else {
			dev = p.Lambda - a.Measure[i]
		}
		if dev > uint64(n) {
			t.Errorf("peer %d: measure %d deviates from lambda %d by %d units", i, a.Measure[i], p.Lambda, dev)
		}
	}
	wantUnassigned := 1 - float64(n)*ring.UnitsToFrac(p.Lambda)
	if math.Abs(ring.UnitsToFrac(a.Unassigned)-wantUnassigned) > 1e-9 {
		t.Errorf("unassigned frac = %v, want %v", ring.UnitsToFrac(a.Unassigned), wantUnassigned)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	t.Parallel()
	r := genRing(t, 1, 8)
	if _, err := Analyze(r, 0, 10); err == nil {
		t.Error("lambda = 0 should fail")
	}
	if _, err := Analyze(r, 100, -1); err == nil {
		t.Error("negative steps should fail")
	}
	single, err := ring.New([]ring.Point{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(single, 100, 10); err == nil {
		t.Error("single peer should fail")
	}
}

func TestNaiveDistribution(t *testing.T) {
	t.Parallel()
	r, err := ring.New([]ring.Point{0, 1 << 62, 1 << 63})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := NaiveDistribution(r)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 0 at point 0: chosen when x lands in the wrapping arc from
	// 2^63 to 0, of length 2^63 (half the circle).
	if math.Abs(probs[0]-0.5) > 1e-12 {
		t.Errorf("probs[0] = %v, want 0.5", probs[0])
	}
	if math.Abs(probs[1]-0.25) > 1e-12 {
		t.Errorf("probs[1] = %v, want 0.25", probs[1])
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	single, err := ring.New([]ring.Point{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveDistribution(single); err == nil {
		t.Error("single peer should fail")
	}
}

func TestNaiveDistributionBiasGrowth(t *testing.T) {
	t.Parallel()
	// The paper: the most likely peer is Theta(n log n) more likely than
	// the least likely one. Check the ratio grows superlinearly in n.
	ratio := func(n int) float64 {
		r := genRing(t, uint64(n)*13, n)
		probs, err := NaiveDistribution(r)
		if err != nil {
			t.Fatal(err)
		}
		minP, maxP := math.Inf(1), 0.0
		for _, p := range probs {
			minP = math.Min(minP, p)
			maxP = math.Max(maxP, p)
		}
		return maxP / minP
	}
	r1 := ratio(256)
	r2 := ratio(4096)
	if r2 < 4*r1 {
		t.Errorf("bias ratio grew too slowly: n=256 -> %.0f, n=4096 -> %.0f", r1, r2)
	}
}

// referenceAnalyze is the analyzer's per-arc scan without the horizon
// break: every arc is scanned to maxSteps (or until all of it is
// assigned). It fills only Measure, Unassigned and DeepestStep.
func referenceAnalyze(r *ring.Ring, lambda uint64, maxSteps int) *Assignment {
	n := r.Len()
	a := &Assignment{Lambda: lambda, MaxSteps: maxSteps, Measure: make([]uint64, n)}
	for i := 0; i < n; i++ {
		arcLen := r.Arc(i)
		cur := r.NextIndex(i)
		assigned := min(arcLen, lambda)
		a.Measure[cur] += assigned
		if arcLen > lambda {
			dMax := ring.S128Of(arcLen - 1)
			maxPrev := ring.S128Of(lambda - 1)
			c := ring.S128Of(lambda)
			for k := 1; k <= maxSteps && maxPrev.Cmp(dMax) < 0; k++ {
				c = c.AddUint(lambda).SubUint(r.Arc(cur))
				cur = r.NextIndex(cur)
				upper := c
				if upper.Cmp(dMax) > 0 {
					upper = dMax
				}
				if upper.Cmp(maxPrev) > 0 {
					cnt, _ := upper.Sub(maxPrev).Uint64()
					a.Measure[cur] += cnt
					assigned += cnt
					a.DeepestStep = max(a.DeepestStep, k)
					maxPrev = upper
				}
			}
		}
		a.Unassigned += arcLen - assigned
	}
	return a
}

// e1Ring is a ring of experiment E1's sweep at its default seed.
func e1Ring(t testing.TB, n int) *ring.Ring {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(1, uint64(n))), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sliverRing is a ring on which, at lambda = 100 and maxSteps = 2, the
// last step assigns a piece that ends exactly at the horizon: behind a
// 1000-unit arc come arcs of 190 and 5 units, so C_1 = 10 assigns
// nothing and C_2 = horizon - 195 = 105 assigns D in [100, 105]. A
// horizon taken a few units short loses the piece.
func sliverRing(t testing.TB) (r *ring.Ring, lambda uint64, maxSteps int) {
	t.Helper()
	r, err := ring.New([]ring.Point{0, 1000, 1190, 1195})
	if err != nil {
		t.Fatal(err)
	}
	return r, 100, 2
}

// TestAnalyzeHorizonBreakChangesNothing requires the analyzer with its
// early break to return bit-identical Measure, Unassigned and
// DeepestStep to the full scan: on the E1 ring set at the paper's
// parameters, and where the walk bound or lambda is far off them.
func TestAnalyzeHorizonBreakChangesNothing(t *testing.T) {
	t.Parallel()
	type tc struct {
		r        *ring.Ring
		lambda   uint64
		maxSteps int
	}
	var cases []tc
	for _, n := range []int{256, 1024, 4096, 16384} {
		p := paramsForN(t, n)
		cases = append(cases, tc{e1Ring(t, n), p.Lambda, p.MaxSteps})
	}
	sliver, sliverLambda, sliverSteps := sliverRing(t)
	cases = append(cases, tc{sliver, sliverLambda, sliverSteps})
	for _, n := range []int{2, 3, 5, 33, 300} {
		r := genRing(t, uint64(n)+5, n)
		ideal := paramsForN(t, n).Lambda
		for _, lambda := range []uint64{1, ideal / 16, ideal / 2, ideal, 3 * ideal, 7 * ideal, 1 << 63, math.MaxUint64} {
			for _, maxSteps := range []int{0, 1, 2, 7, 3 * n} {
				cases = append(cases, tc{r, lambda, maxSteps})
			}
		}
	}
	for _, c := range cases {
		got, err := Analyze(c.r, c.lambda, c.maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceAnalyze(c.r, c.lambda, c.maxSteps)
		where := fmt.Sprintf("n=%d lambda=%d maxSteps=%d", c.r.Len(), c.lambda, c.maxSteps)
		if !slices.Equal(got.Measure, want.Measure) {
			t.Errorf("%s: Measure differs from the full scan", where)
		}
		if got.Unassigned != want.Unassigned || got.DeepestStep != want.DeepestStep {
			t.Errorf("%s: unassigned %d deepest %d, full scan %d and %d",
				where, got.Unassigned, got.DeepestStep, want.Unassigned, want.DeepestStep)
		}
	}
}

// scriptedSource is a rand.Source that replays the given values.
type scriptedSource struct{ vals []uint64 }

func (s *scriptedSource) Uint64() uint64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

// TestSamplerAtPieceBoundariesReproducesAnalyze ties the running
// sampler to the analyzer exactly. Within the arc in front of a peer the
// outcome of a trial is a step function of D = d(s, h(s)) that can
// change only past a threshold lambda-1 or C_k, so running the sampler —
// scripted RNG, one trial — at D = C_k and D = C_k + 1 for every arc and
// every k finds every piece and its owner. The pieces must add up to the
// measure Analyze assigns each peer, unit for unit, failed trials to
// Unassigned; and a trial may fail only where no step assigns.
func TestSamplerAtPieceBoundariesReproducesAnalyze(t *testing.T) {
	t.Parallel()
	sliver, sliverLambda, sliverSteps := sliverRing(t)
	requirePiecesMatchAnalyze(t, sliver, Params{Lambda: sliverLambda, MaxSteps: sliverSteps})
	if got := thresholdChoice(sliver, sliverLambda, sliverSteps, ring.Sub(1000, 105)); got != 3 {
		t.Fatalf("sliver ring: D=105 is assigned to %d, want the piece at the horizon (peer 3)", got)
	}
	for _, n := range []int{2, 3, 4, 9, 24, 60} {
		for seed := uint64(0); seed < 3; seed++ {
			r := genRing(t, seed*977+uint64(n), n)
			ideal := paramsForN(t, n)
			for _, p := range []Params{
				ideal,
				{Lambda: ideal.Lambda, MaxSteps: 1},
				{Lambda: ideal.Lambda, MaxSteps: 3},
				{Lambda: ideal.Lambda / 5, MaxSteps: ideal.MaxSteps},
				{Lambda: 3 * ideal.Lambda, MaxSteps: 2},
				{Lambda: 1 << 63, MaxSteps: 4},
			} {
				requirePiecesMatchAnalyze(t, r, p)
			}
		}
	}
}

func requirePiecesMatchAnalyze(t *testing.T, r *ring.Ring, p Params) {
	t.Helper()
	n := r.Len()
	o := dht.NewOracle(r)
	a, err := Analyze(r, p.Lambda, p.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	// sample runs one scripted trial from s on a plain sampler, or on an
	// exclusive one that walks the oracle lane's ring, and returns the
	// chosen owner (-1 if the trial failed), its effort and its charge.
	sample := func(s ring.Point, exclusive bool) (int, Stats, simnet.Cost) {
		// An exclusive sampler draws lookAhead starts at once; the one
		// trial takes the first.
		starts := make([]uint64, lookAhead)
		starts[0] = uint64(s)
		smp, err := NewWithParams(o, rand.New(&scriptedSource{starts}), p, Config{MaxTrials: 1})
		if err != nil {
			t.Fatal(err)
		}
		if exclusive {
			f, err := smp.ForkExclusive(0)
			if err != nil {
				t.Fatal(err)
			}
			if smp = f.(*Sampler); smp.remote == nil {
				t.Fatal("an exclusive sampler over the oracle does not walk its lane's ring")
			}
			smp.rng = rand.New(&scriptedSource{starts})
		}
		before := o.Meter().Snapshot()
		peer, err := smp.Sample()
		cost := o.Meter().Snapshot().Sub(before)
		if errors.Is(err, ErrTrialsExhausted) {
			peer.Owner = -1
		} else if err != nil {
			t.Fatal(err)
		}
		return peer.Owner, smp.Stats(), cost
	}
	// trial runs one scripted trial from s on both samplers, which must
	// agree on the owner, the effort and the charge, and returns the
	// owner.
	trial := func(s ring.Point) int {
		owner, effort, cost := sample(s, false)
		if o2, e2, c2 := sample(s, true); o2 != owner || e2 != effort || c2 != cost {
			t.Fatalf("n=%d %+v s=%v: exclusive sampler chose %d with %+v for %+v, plain sampler %d with %+v for %+v",
				n, p, s, o2, e2, c2, owner, effort, cost)
		}
		return owner
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
				t.Fatalf("n=%d %+v arc %d: D=%d chose %d but D=%d of the same piece chose %d",
					n, p, i, start, got, end, owner)
			}
			if want := thresholdChoice(r, p.Lambda, p.MaxSteps, at(end)); owner != want {
				t.Fatalf("n=%d %+v arc %d D=%d: sampler chose %d, the analyzer's rule %d", n, p, i, end, owner, want)
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
		t.Fatalf("n=%d %+v: pieces found by the sampler do not add up to Analyze's assignment\n got %v + %d\nwant %v + %d",
			n, p, measure, unassigned, a.Measure, a.Unassigned)
	}
}
