package stats

import (
	"fmt"
	"math"
)

// Tests over the order of a stream of draws, not only its histogram. A
// sampler can meet ChiSquareUniform on every peer and still repeat
// itself, answer in runs, or hand two forks the same sequence; these
// two tests look for exactly that.

// SerialChiSquare runs Good's serial test of lag-1 independence on seq,
// a stream of categories in [0, n): it counts the overlapping pairs
// (seq[i], seq[i+1]), the last one wrapping to seq[0], and returns
// psi²(pairs) − psi²(singles), which for independent uniform draws is
// asymptotically chi-square with n² − n degrees of freedom, with the
// p-value P(X >= stat). Pairs that overlap are not independent, so the
// plain pair chi-square is not chi-square distributed; subtracting the
// singles' statistic is what makes it so (Good 1953). Every one of the
// n² pair cells should expect 10 or more draws: len(seq) >= 10·n².
func SerialChiSquare(seq []int, n int) (stat, pvalue float64, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("stats: serial test needs at least 2 categories, got %d", n)
	}
	if len(seq) < 2 {
		return 0, 0, fmt.Errorf("stats: serial test needs at least 2 draws, got %d", len(seq))
	}
	singles := make([]int64, n)
	for _, c := range seq {
		if c < 0 || c >= n {
			return 0, 0, fmt.Errorf("stats: category %d outside [0, %d)", c, n)
		}
		singles[c]++
	}
	pairs := make([]int64, n*n)
	prev := seq[len(seq)-1]
	for _, c := range seq {
		pairs[prev*n+c]++
		prev = c
	}
	stat = psiSquare(pairs, len(seq)) - psiSquare(singles, len(seq))
	df := float64(n*n - n)
	return stat, ChiSquareSurvival(stat, df), nil
}

// psiSquare is Pearson's statistic of counts against total draws spread
// evenly over the cells.
func psiSquare(counts []int64, total int) float64 {
	expected := float64(total) / float64(len(counts))
	var s float64
	for _, c := range counts {
		d := float64(c) - expected
		s += d * d / expected
	}
	return s
}

// Collisions counts the positions at which two equal-length streams of
// categories in [0, n) agree. If the streams are independent and one of
// them is uniform, that count is Binomial(len(a), 1/n); pvalue is the
// two-sided probability of a count at least as far out, twice the
// smaller tail, capped at 1. Two forks that share state or seed show up
// as far too many collisions, two that avoid each other as too few.
func Collisions(a, b []int, n int) (collisions int, pvalue float64, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("stats: collision test needs at least 2 categories, got %d", n)
	}
	if len(a) != len(b) {
		return 0, 0, fmt.Errorf("stats: mismatched stream lengths %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, 0, fmt.Errorf("stats: empty streams")
	}
	for i := range a {
		if a[i] < 0 || a[i] >= n || b[i] < 0 || b[i] >= n {
			return 0, 0, fmt.Errorf("stats: category pair (%d, %d) outside [0, %d)", a[i], b[i], n)
		}
		if a[i] == b[i] {
			collisions++
		}
	}
	k, p := len(a), 1/float64(n)
	lower := binomialMass(0, collisions, k, p)
	upper := binomialMass(collisions, k, k, p)
	return collisions, math.Min(1, 2*math.Min(lower, upper)), nil
}

// binomialMass returns P(lo <= X <= hi) for X ~ Binomial(k, p), 0 < p <
// 1, summing each term in log space so that a far tail keeps its
// digits.
func binomialMass(lo, hi, k int, p float64) float64 {
	lk, _ := math.Lgamma(float64(k + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	var s float64
	for j := lo; j <= hi; j++ {
		lj, _ := math.Lgamma(float64(j + 1))
		lr, _ := math.Lgamma(float64(k - j + 1))
		s += math.Exp(lk - lj - lr + float64(j)*lp + float64(k-j)*lq)
	}
	return s
}
