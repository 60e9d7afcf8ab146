package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/stats"
)

func TestSamplerUniformityChiSquare(t *testing.T) {
	t.Parallel()
	// Theorem 6, empirically: samples over an oracle DHT pass a
	// chi-square uniformity test.
	const n = 128
	o := newOracle(t, 3, n)
	rng := rand.New(rand.NewPCG(10, 20))
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	const samples = 40 * n
	for i := 0; i < samples; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	stat, pvalue, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if pvalue < 0.001 {
		t.Errorf("uniformity rejected: chi2 = %.1f, p = %.2e", stat, pvalue)
	}
}

func TestSamplerMatchesAnalyzer(t *testing.T) {
	t.Parallel()
	// The empirical selection distribution must match the analyzer's
	// exact conditional distribution Measure/(sum Measure).
	const n = 64
	rngRing := rand.New(rand.NewPCG(8, 80))
	r, err := ring.Generate(rngRing, n)
	if err != nil {
		t.Fatal(err)
	}
	o := dht.NewOracle(r)
	p := paramsForN(t, n)
	a, err := Analyze(r, p.Lambda, p.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithParams(o, rand.New(rand.NewPCG(5, 50)), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const samples = 20000
	counts := make([]int64, n)
	for i := 0; i < samples; i++ {
		peer, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[peer.Owner]++
	}
	var totalAssigned float64
	for _, m := range a.Measure {
		totalAssigned += float64(m)
	}
	for i := 0; i < n; i++ {
		want := float64(a.Measure[i]) / totalAssigned
		got := float64(counts[i]) / samples
		sigma := math.Sqrt(want * (1 - want) / samples)
		if math.Abs(got-want) > 5*sigma+1e-9 {
			t.Errorf("peer %d: empirical %.5f vs analyzer %.5f", i, got, want)
		}
	}
}

func TestSamplerTinyNetworks(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3} {
		o := newOracle(t, uint64(n)*7+1, n)
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		s, err := New(o, o.PeerByIndex(0), rng, Config{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[int]int, n)
		for i := 0; i < 50*n; i++ {
			p, err := s.Sample()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			seen[p.Owner]++
		}
		if len(seen) != n {
			t.Errorf("n=%d: only %d distinct peers sampled", n, len(seen))
		}
	}
}

func TestSamplerCostLogarithmic(t *testing.T) {
	t.Parallel()
	// Theorem 7: expected cost O(t_h + log n) RPCs per sample. On the
	// oracle t_h = ceil(log2 n), so cost per sample should stay within a
	// constant multiple of log2 n.
	for _, n := range []int{256, 4096} {
		o := newOracle(t, uint64(n)*3+5, n)
		rng := rand.New(rand.NewPCG(6, uint64(n)))
		s, err := New(o, o.PeerByIndex(0), rng, Config{})
		if err != nil {
			t.Fatal(err)
		}
		const samples = 300
		before := o.Meter().Snapshot()
		for i := 0; i < samples; i++ {
			if _, err := s.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		cost := o.Meter().Snapshot().Sub(before)
		perSample := float64(cost.Calls) / samples
		logN := math.Log2(float64(n))
		// Each trial costs ~log2(n) for h plus up to 6 ln n' next steps;
		// expected trials can reach 7*nhat/n <= 42 when the estimate
		// lands near Lemma 3's upper constant. The product still scales
		// as O(log n); assert a generous constant factor.
		if perSample > 150*logN {
			t.Errorf("n=%d: %.1f RPCs per sample, exceeds 150*log2(n) = %.1f", n, perSample, 150*logN)
		}
	}
}

func TestSamplerExpectedTrialsBounded(t *testing.T) {
	t.Parallel()
	// Success probability per trial is n*lambda = n/(7*nhat) >= 1/42
	// under Lemma 3, so mean trials is at most 42 (typically ~2-14).
	const n = 512
	o := newOracle(t, 99, n)
	rng := rand.New(rand.NewPCG(7, 70))
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const samples = 2000
	for i := 0; i < samples; i++ {
		if _, err := s.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	meanTrials := float64(st.Trials) / float64(st.Samples)
	if meanTrials > 42 {
		t.Errorf("mean trials per sample = %.2f, exceeds 42", meanTrials)
	}
	if st.Samples != samples {
		t.Errorf("Samples = %d, want %d", st.Samples, samples)
	}
}

func TestSamplerTraced(t *testing.T) {
	t.Parallel()
	const n = 64
	o := newOracle(t, 55, n)
	rng := rand.New(rand.NewPCG(5, 5))
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, trace, err := s.SampleTraced()
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner < 0 || p.Owner >= n {
		t.Errorf("owner %d out of range", p.Owner)
	}
	if trace.Trials < 1 {
		t.Errorf("trace.Trials = %d, want >= 1", trace.Trials)
	}
	if trace.Steps > trace.Trials*s.Params().MaxSteps {
		t.Errorf("trace.Steps = %d exceeds trials*maxSteps", trace.Steps)
	}
}

func TestSamplerName(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 1, 16)
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(1, 1)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "king-saia" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestNewWithParamsValidation(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 2, 16)
	rng := rand.New(rand.NewPCG(2, 2))
	if _, err := NewWithParams(o, rng, Params{Lambda: 0, MaxSteps: 5}, Config{}); !errors.Is(err, ErrBadEstimate) {
		t.Error("lambda 0 should fail with ErrBadEstimate")
	}
	if _, err := NewWithParams(o, rng, Params{Lambda: 10, MaxSteps: 0}, Config{}); err == nil {
		t.Error("zero max steps should fail")
	}
}

// TestNewRejectsNonFiniteConstants: a NaN, infinite or overflowing
// constant used to derive a one-step walk (MaxSteps = 1, a 0.6λ
// deviation from exact 1/n on this ring) or a one-step Estimate n
// instead of failing.
func TestNewRejectsNonFiniteConstants(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 7, 256)
	for _, cfg := range []Config{
		{StepFactor: math.NaN()},
		{StepFactor: math.Inf(1)},
		{StepFactor: 1e300},
		{Gamma1: math.NaN()},
		{C1: math.NaN()},
		{C1: math.Inf(1)},
		{C1: 1e300},
	} {
		if s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(1, 1)), cfg); err == nil {
			t.Errorf("New(%+v) = MaxSteps %d, want an error", cfg, s.Params().MaxSteps)
		}
	}
}

func TestSamplerTrialsExhausted(t *testing.T) {
	t.Parallel()
	// A pathologically small lambda with one max step and one trial makes
	// failure near-certain.
	const n = 1024
	o := newOracle(t, 123, n)
	rng := rand.New(rand.NewPCG(3, 3))
	s, err := NewWithParams(o, rng, Params{Lambda: 1, MaxSteps: 1}, Config{MaxTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawExhaustion := false
	for i := 0; i < 50; i++ {
		if _, err := s.Sample(); errors.Is(err, ErrTrialsExhausted) {
			sawExhaustion = true
			break
		}
	}
	if !sawExhaustion {
		t.Error("expected ErrTrialsExhausted with lambda = 1 unit and 1 trial")
	}
}

func TestSamplerEstimateAccessors(t *testing.T) {
	t.Parallel()
	const n = 256
	o := newOracle(t, 15, n)
	s, err := New(o, o.PeerByIndex(4), rand.New(rand.NewPCG(4, 4)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Estimate().NHat <= 0 {
		t.Error("estimate not recorded")
	}
	p := s.Params()
	if p.Lambda == 0 || p.MaxSteps < 1 {
		t.Errorf("params = %+v", p)
	}
	// lambda must be <= 1/(7*gamma1... ) sanity: lambda < 2^64/(7*n*2/7/ (6+eps)) etc.
	// Simply: lambda should be within a constant factor of 2^64/(7n).
	ideal := ring.FracToUnits(1 / (7 * float64(n)))
	ratio := float64(p.Lambda) / float64(ideal)
	if ratio < 1.0/8 || ratio > 8 {
		t.Errorf("lambda ratio to ideal = %v", ratio)
	}
}

func TestSamplerConcurrentUse(t *testing.T) {
	t.Parallel()
	const n = 128
	o := newOracle(t, 77, n)
	s, err := New(o, o.PeerByIndex(0), rand.New(rand.NewPCG(9, 9)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := s.Sample(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Samples; got != 800 {
		t.Errorf("Samples = %d, want 800", got)
	}
}
