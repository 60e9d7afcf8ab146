package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// draws returns k uniform categories in [0, n) from a fixed PCG stream.
func draws(k, n int, seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5e71a1))
	out := make([]int, k)
	for i := range out {
		out[i] = rng.IntN(n)
	}
	return out
}

func TestSerialChiSquareAcceptsIndependentDraws(t *testing.T) {
	t.Parallel()
	// Under the null hypothesis the p-value is uniform, so over many
	// seeds about a tenth falls under 0.1 and none under 1e-6.
	const seeds = 200
	low := 0
	for seed := uint64(0); seed < seeds; seed++ {
		_, p, err := SerialChiSquare(draws(16*16*20, 16, seed), 16)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-6 {
			t.Fatalf("seed %d: independent draws rejected, p = %v", seed, p)
		}
		if p < 0.1 {
			low++
		}
	}
	if low < seeds/20 || low > seeds/5 {
		t.Errorf("%d of %d p-values under 0.1, want about %d: the statistic is not chi-square(n² − n)", low, seeds, seeds/10)
	}
}

func TestSerialChiSquareRejectsLag1Dependence(t *testing.T) {
	t.Parallel()
	// Every category is equally frequent, so ChiSquareUniform passes,
	// but one draw in eight repeats its predecessor's successor.
	const n = 16
	rng := rand.New(rand.NewPCG(3, 9))
	seq := make([]int, n*n*20)
	for i := range seq {
		if i > 0 && rng.IntN(8) == 0 {
			seq[i] = (seq[i-1] + 1) % n
		} else {
			seq[i] = rng.IntN(n)
		}
	}
	if _, p, err := SerialChiSquare(seq, n); err != nil || p > 1e-6 {
		t.Fatalf("lag-1 dependent stream accepted: p = %v, err = %v", p, err)
	}
	// A round robin has perfectly flat singles and only n of n² pairs.
	for i := range seq {
		seq[i] = i % n
	}
	if _, p, err := SerialChiSquare(seq, n); err != nil || p > 1e-6 {
		t.Fatalf("round robin accepted: p = %v, err = %v", p, err)
	}
}

func TestSerialChiSquareErrors(t *testing.T) {
	t.Parallel()
	for name, tc := range map[string]struct {
		seq []int
		n   int
	}{
		"one category":     {[]int{0, 0, 0}, 1},
		"one draw":         {[]int{1}, 4},
		"category too big": {[]int{0, 4, 1}, 4},
		"last negative":    {[]int{0, 1, -1}, 4},
	} {
		if _, _, err := SerialChiSquare(tc.seq, tc.n); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestCollisionsKnownValues(t *testing.T) {
	t.Parallel()
	// Ten fair coin flips that all agree: P(X = 10) = 2^-10, two-sided.
	a := []int{0, 1, 0, 1, 1, 0, 0, 1, 1, 0}
	c, p, err := Collisions(a, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c != 10 || !almostEqual(p, 2.0/1024, 1e-12) {
		t.Errorf("identical coin streams: %d collisions, p = %v; want 10, %v", c, p, 2.0/1024)
	}
	// Five agreements in ten flips is the median: p is capped at 1.
	b := []int{0, 1, 0, 1, 1, 1, 1, 0, 0, 1}
	if c, p, err = Collisions(a, b, 2); err != nil || c != 5 || p != 1 {
		t.Errorf("half agreeing: %d collisions, p = %v, err = %v; want 5, 1", c, p, err)
	}
	// The two tails of Binomial(100, 1/4) at 10 and 40 agree with the
	// normal approximation's order of magnitude and sum under 1.
	lower := binomialMass(0, 10, 100, 0.25)
	upper := binomialMass(40, 100, 100, 0.25)
	if lower < 1e-4 || lower > 1e-2 || upper < 1e-4 || upper > 1e-2 {
		t.Errorf("Binomial(100, 1/4) tails: P(X <= 10) = %v, P(X >= 40) = %v", lower, upper)
	}
	if total := binomialMass(0, 100, 100, 0.25); math.Abs(total-1) > 1e-12 {
		t.Errorf("Binomial(100, 1/4) mass sums to %v", total)
	}
}

func TestCollisionsAcceptsIndependentStreams(t *testing.T) {
	t.Parallel()
	const seeds = 200
	low := 0
	for seed := uint64(0); seed < seeds; seed++ {
		_, p, err := Collisions(draws(4096, 16, 2*seed), draws(4096, 16, 2*seed+1), 16)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-6 {
			t.Fatalf("seed %d: independent streams rejected, p = %v", seed, p)
		}
		if p < 0.1 {
			low++
		}
	}
	if low < seeds/20 || low > seeds/5 {
		t.Errorf("%d of %d p-values under 0.1, want about %d", low, seeds, seeds/10)
	}
}

func TestCollisionsRejectsCoupledStreams(t *testing.T) {
	t.Parallel()
	a := draws(4096, 16, 1)
	// A stream that copies the other one draw in ten, as two forks
	// sharing part of one generator would, collides too often.
	b := draws(4096, 16, 2)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := range b {
		if rng.IntN(10) == 0 {
			b[i] = a[i]
		}
	}
	if _, p, err := Collisions(a, b, 16); err != nil || p > 1e-6 {
		t.Fatalf("copying stream accepted: p = %v, err = %v", p, err)
	}
	// A stream that never agrees is as wrong as one that always does.
	for i := range b {
		b[i] = (a[i] + 1) % 16
	}
	if c, p, err := Collisions(a, b, 16); err != nil || c != 0 || p > 1e-6 {
		t.Fatalf("avoiding stream accepted: %d collisions, p = %v, err = %v", c, p, err)
	}
}

func TestCollisionsErrors(t *testing.T) {
	t.Parallel()
	for name, tc := range map[string]struct {
		a, b []int
		n    int
	}{
		"one category":      {[]int{0}, []int{0}, 1},
		"length mismatch":   {[]int{0, 1}, []int{0}, 2},
		"empty":             {nil, nil, 2},
		"category too big":  {[]int{0, 2}, []int{0, 1}, 2},
		"negative category": {[]int{0, 1}, []int{-1, 1}, 2},
	} {
		if _, _, err := Collisions(tc.a, tc.b, tc.n); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
