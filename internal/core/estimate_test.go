package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

func newOracle(t *testing.T, seed uint64, n int) *dht.Oracle {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	o, err := dht.GenerateOracle(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestEstimateNWithinLemma3Band(t *testing.T) {
	t.Parallel()
	// Lemma 3: nhat is a (2/7-eps, 6+eps) approximation of n w.h.p. Check
	// every peer's estimate across several n.
	const (
		lower = 2.0/7.0 - 0.05
		upper = 6.0 + 0.05
	)
	for _, n := range []int{256, 1024, 4096} {
		o := newOracle(t, uint64(n), n)
		violations := 0
		for i := 0; i < n; i++ {
			res, err := EstimateN(o, o.PeerByIndex(i), 2)
			if err != nil {
				t.Fatal(err)
			}
			ratio := res.NHat / float64(n)
			if ratio < lower || ratio > upper {
				violations++
			}
		}
		if violations > 0 {
			t.Errorf("n=%d: %d/%d peers estimated outside (%.3f, %.3f)", n, violations, n, lower, upper)
		}
	}
}

func TestEstimateNExactOnTinyNetworks(t *testing.T) {
	t.Parallel()
	// On networks small enough that the walk wraps, the estimate is the
	// exact peer count.
	for _, n := range []int{1, 2, 3, 5, 8} {
		o := newOracle(t, uint64(n)+100, n)
		res, err := EstimateN(o, o.PeerByIndex(0), 2)
		if err != nil {
			t.Fatal(err)
		}
		// Wrapping is likely but depends on nhat1: only assert when the
		// algorithm reported exactness.
		if res.Exact && res.NHat != float64(n) {
			t.Errorf("n=%d: exact estimate = %v", n, res.NHat)
		}
		if n == 1 && (!res.Exact || res.NHat != 1) {
			t.Errorf("n=1: result %+v, want exact 1", res)
		}
	}
}

func TestEstimateNWalkLength(t *testing.T) {
	t.Parallel()
	// The walk length s must scale with c1: doubling c1 roughly doubles
	// the number of Next calls (each 1 RPC on the oracle).
	o := newOracle(t, 77, 2048)
	caller := o.PeerByIndex(0)
	cost := func(c1 float64) int64 {
		before := o.Meter().Snapshot()
		if _, err := EstimateN(o, caller, c1); err != nil {
			t.Fatal(err)
		}
		return o.Meter().Snapshot().Sub(before).Calls
	}
	c2 := cost(2)
	c4 := cost(4)
	if c4 < c2*3/2 {
		t.Errorf("walk cost did not scale with c1: c1=2 -> %d, c1=4 -> %d", c2, c4)
	}
	// And stays O(log n): generous bound of 10*c1*ln(n) + constant.
	if limit := int64(10 * 2 * math.Log(2048)); c2 > limit {
		t.Errorf("walk cost %d exceeds O(log n) bound %d", c2, limit)
	}
}

func TestEstimateNRaisesLowC1(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 13, 128)
	res, err := EstimateN(o, o.PeerByIndex(0), 0) // clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if res.S < 1 {
		t.Errorf("S = %d, want >= 1", res.S)
	}
}

// TestEstimateNRejectsNonFiniteC1: NaN and infinite c1 used to walk
// one step (int(NaN) clamped to 1); an overflowing walk is an error too.
func TestEstimateNRejectsNonFiniteC1(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 13, 128)
	for _, c1 := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if res, err := EstimateN(o, o.PeerByIndex(0), c1); err == nil {
			t.Errorf("EstimateN(c1 = %v) = %+v, want an error", c1, res)
		}
	}
}

func TestDeriveParams(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		nHat    float64
		gamma1  float64
		factor  float64
		wantErr bool
	}{
		{name: "typical", nHat: 1000, gamma1: 2.0 / 7.0, factor: 6},
		{name: "exact estimate", nHat: 10, gamma1: 1, factor: 6},
		{name: "nhat below one", nHat: 0.5, gamma1: 0.5, factor: 6, wantErr: true},
		{name: "NaN", nHat: math.NaN(), gamma1: 0.5, factor: 6, wantErr: true},
		{name: "Inf", nHat: math.Inf(1), gamma1: 0.5, factor: 6, wantErr: true},
		{name: "bad gamma", nHat: 10, gamma1: 0, factor: 6, wantErr: true},
		{name: "gamma above one", nHat: 10, gamma1: 2, factor: 6, wantErr: true},
		{name: "bad factor", nHat: 10, gamma1: 0.5, factor: 0, wantErr: true},
		{name: "lambda underflow", nHat: 1e30, gamma1: 0.5, factor: 6, wantErr: true},
		{name: "NaN gamma", nHat: 10, gamma1: math.NaN(), factor: 6, wantErr: true},
		{name: "NaN factor", nHat: 10, gamma1: 0.5, factor: math.NaN(), wantErr: true},
		{name: "Inf factor", nHat: 10, gamma1: 0.5, factor: math.Inf(1), wantErr: true},
		{name: "factor overflows the walk bound", nHat: 10, gamma1: 0.5, factor: 1e300, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			p, err := DeriveParams(tt.nHat, tt.gamma1, tt.factor)
			if tt.wantErr {
				if err == nil {
					t.Errorf("want error, got %+v", p)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			wantLambda := ring.FracToUnits(1 / (7 * tt.nHat))
			if p.Lambda != wantLambda {
				t.Errorf("Lambda = %d, want %d", p.Lambda, wantLambda)
			}
			wantSteps := int(math.Ceil(tt.factor * math.Log(tt.nHat/tt.gamma1)))
			if wantSteps < 1 {
				wantSteps = 1
			}
			if p.MaxSteps != wantSteps {
				t.Errorf("MaxSteps = %d, want %d", p.MaxSteps, wantSteps)
			}
		})
	}
	if _, err := DeriveParams(0.5, 0.5, 6); !errors.Is(err, ErrBadEstimate) {
		t.Error("want ErrBadEstimate for tiny nhat")
	}
}

func TestEstimateNDistributionSummary(t *testing.T) {
	t.Parallel()
	// The ratio nhat/n across peers should center near 1 (the estimator
	// is roughly unbiased on uniform rings, not just within the band).
	const n = 2048
	o := newOracle(t, 31, n)
	var sum float64
	for i := 0; i < n; i += 8 {
		res, err := EstimateN(o, o.PeerByIndex(i), 2)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.NHat / float64(n)
	}
	mean := sum / float64(n/8)
	if mean < 0.5 || mean > 2 {
		t.Errorf("mean nhat/n = %v, want within (0.5, 2)", mean)
	}
}
