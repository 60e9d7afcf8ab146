// Package core implements the two algorithms of King & Saia, "Choosing a
// Random Peer" (PODC 2004): Estimate n (Section 2), which lets any peer
// estimate the network size to within a constant factor, and Choose
// Random Peer (Section 3, Figure 1), which selects a peer uniformly at
// random — each peer with probability exactly 1/n — using only the
// standard DHT primitives h and next.
//
// The package also contains the exact assignment analyzer, which
// computes in integer arithmetic the measure of starting points the
// Figure 1 partition assigns to each peer, turning Theorem 6 ("each peer
// is chosen with probability exactly 1/n") into a machine-checkable
// identity rather than a statistical observation.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Core error conditions.
var (
	// ErrTrialsExhausted is returned by Sample when the rejection loop
	// exceeded its safety cap, which w.h.p. indicates a grossly wrong
	// size estimate rather than bad luck.
	ErrTrialsExhausted = errors.New("core: sampling trials exhausted")
	// ErrBadEstimate is returned when a size estimate produces unusable
	// parameters (for example lambda = 0).
	ErrBadEstimate = errors.New("core: unusable size estimate")
	// ErrWalkBound is returned for walk parameters no process runs on
	// another's behalf (see Params.Delegable).
	ErrWalkBound = errors.New("core: walk parameters out of bounds")
)

// EstimateResult reports one run of the Estimate n algorithm.
type EstimateResult struct {
	// NHat1 is the first-stage estimate 1/d(l(p), l(next(p))), correct
	// only to within a constant exponent (Lemma 1).
	NHat1 float64
	// S is the walk length s = ceil(c1 * ln nhat1) actually used.
	S int
	// T is d(l(p), l(next^(s)(p))) in circle units.
	T uint64
	// NHat is the final estimate nhat2 = s/t, a (2/7-eps, 6+eps)
	// approximation of n w.h.p. (Lemma 3).
	NHat float64
	// Exact reports that the walk wrapped all the way around the ring,
	// in which case NHat is the exact peer count. This happens only in
	// networks so small that the walk visits every peer.
	Exact bool
}

// EstimateN runs the Estimate n algorithm from the given peer. c1
// controls the walk length (the paper's tightness constant); values
// below 1 are raised to 1, and a non-finite c1 or a walk too long for
// an int is an error.
//
// Cost: one next per walk step, so O(c1 log n) sequential RPCs.
func EstimateN(d dht.DHT, caller dht.Peer, c1 float64) (EstimateResult, error) {
	if math.IsNaN(c1) || math.IsInf(c1, 0) {
		return EstimateResult{}, fmt.Errorf("core: c1 must be finite, got %v", c1)
	}
	c1 = max(c1, 1)
	// Step 1: nhat1 <- 1 / d(l(p), l(next(p))).
	cur, err := d.Next(caller)
	if err != nil {
		return EstimateResult{}, fmt.Errorf("core: estimate step 1: %w", err)
	}
	if cur.Point == caller.Point {
		// next(p) == p: single-peer network.
		return EstimateResult{NHat1: 1, S: 1, NHat: 1, Exact: true}, nil
	}
	arc1 := ring.Distance(caller.Point, cur.Point)
	nHat1 := ring.UnitsPerCircle / float64(arc1)

	// Step 2: s <- c1 * log nhat1, at least one step (already taken).
	s, err := walkBound(c1, nHat1)
	if err != nil {
		return EstimateResult{}, err
	}
	res := EstimateResult{NHat1: nHat1, S: s}

	// Step 3: walk to next^(s)(p). The walk visits peers in clockwise
	// order, so if it returns to the caller the network has exactly
	// "steps taken" peers and the estimate is exact.
	for step := 2; step <= s; step++ {
		cur, err = d.Next(cur)
		if err != nil {
			return EstimateResult{}, fmt.Errorf("core: estimate walk step %d: %w", step, err)
		}
		if cur.Point == caller.Point {
			res.NHat = float64(step - 1)
			res.S = step - 1
			res.Exact = true
			return res, nil
		}
	}
	// Step 4: nhat2 <- s / t.
	res.T = ring.Distance(caller.Point, cur.Point)
	res.NHat = float64(s) * ring.UnitsPerCircle / float64(res.T)
	return res, nil
}

// Params are the derived sampling parameters shared by the sampler and
// the exact analyzer.
type Params struct {
	// NHat is the size estimate the parameters were derived from.
	NHat float64
	// Lambda is the arc measure assigned to every peer, in circle units:
	// lambda = 1/(7*nhat) of the circle.
	Lambda uint64
	// MaxSteps is the per-trial walk bound ceil(6 * ln n'), where
	// n' = nhat / gamma1 upper-bounds n w.h.p.
	MaxSteps int
}

// horizon returns H = (maxSteps+1)*lambda: the farthest a trial's walk
// can be from its starting point s and still accept. A walk accepts at
// step j <= maxSteps only while d(s, p_j) <= (j+1)*lambda <= H, and the
// distance walked never shrinks, so once it exceeds H the trial has
// failed whatever the remaining arcs are. The sampler abandons the trial
// there and the analyzer stops scanning the arc there; both take H from
// here so they cannot disagree. H is a 128-bit value: lambda near 2^63
// (tiny rings) times a two-digit step count overflows 64 bits.
func horizon(lambda uint64, maxSteps int) ring.S128 {
	return ring.S128Mul(uint64(maxSteps)+1, lambda)
}

// DeriveParams computes lambda and the walk bound from a size estimate.
// gamma1 is the lower approximation constant of the estimate (Lemma 3
// gives 2/7 for EstimateN); stepFactor is the paper's 6.
func DeriveParams(nHat, gamma1, stepFactor float64) (Params, error) {
	if nHat < 1 || math.IsNaN(nHat) || math.IsInf(nHat, 0) {
		return Params{}, fmt.Errorf("%w: nhat = %v", ErrBadEstimate, nHat)
	}
	if !(gamma1 > 0 && gamma1 <= 1) {
		return Params{}, fmt.Errorf("core: gamma1 must be in (0, 1], got %v", gamma1)
	}
	if !(stepFactor > 0) || math.IsInf(stepFactor, 1) {
		return Params{}, fmt.Errorf("core: step factor must be positive and finite, got %v", stepFactor)
	}
	lambda := ring.FracToUnits(1 / (7 * nHat))
	if lambda == 0 {
		return Params{}, fmt.Errorf("%w: lambda underflows at nhat = %v", ErrBadEstimate, nHat)
	}
	maxSteps, err := walkBound(stepFactor, nHat/gamma1)
	if err != nil {
		return Params{}, err
	}
	return Params{NHat: nHat, Lambda: lambda, MaxSteps: maxSteps}, nil
}

// walkBound is a walk length ceil(factor * ln n), at least 1; a bound
// past math.MaxInt is an error, not a wrapped int.
func walkBound(factor, n float64) (int, error) {
	steps := math.Ceil(factor * math.Log(n))
	if !(steps < math.MaxInt) {
		return 0, fmt.Errorf("core: walk bound %v * ln %v overflows int", factor, n)
	}
	return max(int(steps), 1), nil
}
