package core

import (
	"fmt"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Assignment is the exact partition of the circle induced by the Figure 1
// algorithm for a fixed ring, lambda and walk bound: Measure[i] is the
// number of circle units (starting points s) that deterministically lead
// the algorithm to return peer i, and Unassigned is the number of units
// on which a trial fails and the algorithm retries.
//
// Theorem 6 states that (w.h.p. over peer placement) Measure[i] is
// exactly lambda for every peer. In the 2^64-unit integer circle the
// identity holds up to a per-peer rounding slack bounded by the number
// of walk steps; MaxDeviation reports the worst case observed so the
// experiments can show it is a handful of units against a lambda of
// about 2^64/(7n).
type Assignment struct {
	Lambda   uint64
	MaxSteps int
	// Measure[i] is the assigned measure of peer i in circle units.
	Measure []uint64
	// Unassigned is the retry measure in circle units.
	Unassigned uint64
	// MaxDeviation is max_i |Measure[i] - Lambda|.
	MaxDeviation uint64
	// SuccessProbability is 1 - Unassigned/2^64: the per-trial acceptance
	// probability (n*lambda when nothing is truncated).
	SuccessProbability float64
	// DeepestStep is the largest walk step at which any measure is
	// assigned (0 when every accepted point is the "small interval"
	// case). If DeepestStep < MaxSteps the walk bound was not binding:
	// raising it further cannot change the partition.
	DeepestStep int
}

// Analyze computes the exact assignment for a ring of at least two peers.
//
// Derivation: starting points s in the arc (l(p_i), l(p_{i+1})] satisfy
// h(s) = p_{i+1}; writing D = d(s, l(p_{i+1})) in [0, A_i), the algorithm
// accepts p_{i+1} iff D < lambda (the "small" case) and otherwise accepts
// next^k(p_{i+1}) at the first k >= 1 with
//
//	T_k = D - lambda + sum_{j=1..k} (A_{i+j} - lambda) <= 0,
//
// i.e. D <= C_k where C_k = (k+1)*lambda - sum_{j=1..k} A_{i+j}. Each
// integer D occurs for exactly one s, so counting D values per k yields
// the exact measure. C_k is evaluated in 128-bit arithmetic.
//
// The scan of an arc stops at the sampler's horizon: no later threshold
// can exceed C_k + (maxSteps-k)*lambda = horizon - sum_{j=1..k} A_{i+j},
// so once that is at most the largest D already accepted the remaining
// steps assign nothing.
func Analyze(r *ring.Ring, lambda uint64, maxSteps int) (*Assignment, error) {
	n := r.Len()
	if n < 2 {
		return nil, fmt.Errorf("core: assignment analysis needs >= 2 peers, got %d", n)
	}
	if lambda == 0 {
		return nil, fmt.Errorf("%w: lambda must be positive", ErrBadEstimate)
	}
	if maxSteps < 0 {
		return nil, fmt.Errorf("core: max steps must be >= 0, got %d", maxSteps)
	}
	a := &Assignment{
		Lambda:   lambda,
		MaxSteps: maxSteps,
		Measure:  make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		arcLen := r.Arc(i)
		target := r.NextIndex(i)
		// Step 0: D in [0, min(arcLen, lambda)-1] accepts h(s) itself.
		c0 := arcLen
		if lambda < c0 {
			c0 = lambda
		}
		a.Measure[target] += c0
		assigned := c0
		if arcLen > lambda {
			// room is the horizon less the arcs walked past h(s).
			room := dht.Walk{Lambda: lambda, MaxSteps: maxSteps}.Horizon()
			dMax := ring.S128Of(arcLen - 1)
			// maxPrev tracks the largest D already accepted by an earlier
			// step; theta_0 = lambda-1.
			maxPrev := ring.S128Of(lambda - 1)
			c := ring.S128Of(lambda) // C_0
			cur := target
			for k := 1; k <= maxSteps; k++ {
				arc := r.Arc(cur)
				c = c.AddUint(lambda).SubUint(arc)
				room = room.SubUint(arc)
				cur = r.NextIndex(cur)
				upper := c
				if upper.Cmp(dMax) > 0 {
					upper = dMax
				}
				if upper.Cmp(maxPrev) > 0 {
					cnt, ok := upper.Sub(maxPrev).Uint64()
					if !ok {
						return nil, fmt.Errorf("core: internal error: piece count overflow at arc %d step %d", i, k)
					}
					a.Measure[cur] += cnt
					assigned += cnt
					if k > a.DeepestStep {
						a.DeepestStep = k
					}
				}
				if c.Cmp(maxPrev) > 0 {
					maxPrev = c
				}
				if maxPrev.Cmp(dMax) >= 0 {
					break // every D in this arc is assigned
				}
				if room.Cmp(maxPrev) <= 0 {
					break // past the horizon of every unassigned D
				}
			}
		}
		a.Unassigned += arcLen - assigned
	}
	// Consistency: assigned plus unassigned measure must tile the circle
	// (2^64 wraps to 0 in uint64 arithmetic).
	var total uint64
	for _, m := range a.Measure {
		total += m
	}
	total += a.Unassigned
	if total != 0 {
		return nil, fmt.Errorf("core: internal error: assignment does not tile the circle (residue %d)", total)
	}
	for _, m := range a.Measure {
		var dev uint64
		if m > lambda {
			dev = m - lambda
		} else {
			dev = lambda - m
		}
		if dev > a.MaxDeviation {
			a.MaxDeviation = dev
		}
	}
	a.SuccessProbability = 1 - ring.UnitsToFrac(a.Unassigned)
	return a, nil
}

// NaiveDistribution returns the exact selection distribution of the
// naive heuristic "return h(x) for uniform x": peer i is chosen with
// probability equal to the length of the arc ending at its point
// (Section 1 of the paper). The returned slice sums to 1.
func NaiveDistribution(r *ring.Ring) ([]float64, error) {
	n := r.Len()
	if n < 2 {
		return nil, fmt.Errorf("core: naive distribution needs >= 2 peers, got %d", n)
	}
	probs := make([]float64, n)
	for i := 0; i < n; i++ {
		probs[i] = ring.UnitsToFrac(r.Arc(r.PrevIndex(i)))
	}
	return probs, nil
}
