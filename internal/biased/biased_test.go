package biased

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/stats"
)

func setup(t *testing.T, seed uint64, n int) (*dht.Oracle, *ring.Ring, dht.Sampler) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+13))
	r, err := ring.Generate(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	o := dht.NewOracle(r)
	uniform, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return o, r, uniform
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	_, _, uniform := setup(t, 1, 16)
	rng := rand.New(rand.NewPCG(1, 1))
	w := func(dht.Peer) float64 { return 1 }
	if _, err := New(nil, w, 1, rng); err == nil {
		t.Error("nil uniform should fail")
	}
	if _, err := New(uniform, nil, 1, rng); err == nil {
		t.Error("nil weight should fail")
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(uniform, w, bad, rng); err == nil {
			t.Errorf("maxWeight %v should fail", bad)
		}
	}
}

func TestConstantWeightIsUniform(t *testing.T) {
	t.Parallel()
	const n = 64
	_, _, uniform := setup(t, 3, n)
	s, err := New(uniform, func(dht.Peer) float64 { return 0.7 }, 0.7, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	for i := 0; i < 40*n; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	if _, pvalue, err := stats.ChiSquareUniform(counts); err != nil {
		t.Fatal(err)
	} else if pvalue < 1e-3 {
		t.Errorf("constant-weight bias should stay uniform, p = %v", pvalue)
	}
	// Constant weight = every draw accepted: mean draws 1.
	if got := s.MeanDraws(); got != 1 {
		t.Errorf("MeanDraws = %v, want 1", got)
	}
}

func TestStepWeightMatchesTargetDistribution(t *testing.T) {
	t.Parallel()
	const n = 64
	_, _, uniform := setup(t, 5, n)
	// Owners < 16 get weight 1, the rest 0.25: target probability for a
	// low owner is 1/(16 + 48*0.25) = 1/28, for a high owner 0.25/28.
	w, maxW, err := Step(func(owner int) bool { return owner < 16 }, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(uniform, w, maxW, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 56000
	var low int64
	for i := 0; i < samples; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if p.Owner < 16 {
			low++
		}
	}
	wantLow := 16.0 / 28.0
	gotLow := float64(low) / samples
	sigma := math.Sqrt(wantLow * (1 - wantLow) / samples)
	if math.Abs(gotLow-wantLow) > 5*sigma {
		t.Errorf("low-owner mass = %v, want %v (5 sigma = %v)", gotLow, wantLow, 5*sigma)
	}
	// Acceptance rate = E[w]/maxW = (28/64)/1: mean draws ~ 64/28.
	if got, want := s.MeanDraws(), 64.0/28.0; math.Abs(got-want) > 0.15 {
		t.Errorf("MeanDraws = %v, want ~%v", got, want)
	}
}

func TestZeroWeightExcludesPeers(t *testing.T) {
	t.Parallel()
	const n = 32
	_, _, uniform := setup(t, 7, n)
	w, maxW, err := Step(func(owner int) bool { return owner%2 == 0 }, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(uniform, w, maxW, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if p.Owner%2 != 0 {
			t.Fatalf("excluded peer %d sampled", p.Owner)
		}
	}
}

func TestInverseDistanceBias(t *testing.T) {
	t.Parallel()
	const n = 128
	o, r, uniform := setup(t, 9, n)
	caller := o.PeerByIndex(0)
	w, maxW, err := InverseDistance(caller, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(uniform, w, maxW, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	// Expected distribution: w(p) normalized.
	weights := make([]float64, n)
	var totalW float64
	for i := 0; i < n; i++ {
		weights[i] = w(o.PeerByIndex(i))
		totalW += weights[i]
	}
	const samples = 30000
	counts := make([]int64, n)
	for i := 0; i < samples; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	// Aggregate check: mass of the near half (clockwise) must exceed the
	// far half by the weight ratio, within noise.
	var nearWant, nearGot float64
	for i := 0; i < n; i++ {
		d := ring.UnitsToFrac(ring.Distance(caller.Point, r.At(i)))
		if d < 0.5 {
			nearWant += weights[i] / totalW
			nearGot += float64(counts[i]) / samples
		}
	}
	if math.Abs(nearGot-nearWant) > 0.02 {
		t.Errorf("near-half mass = %v, want %v", nearGot, nearWant)
	}
	if nearWant < 0.6 {
		t.Errorf("inverse-distance weights should favor the near half, want mass %v > 0.6", nearWant)
	}
}

func TestInverseDistanceValidation(t *testing.T) {
	t.Parallel()
	caller := dht.Peer{Point: 0, Owner: 0}
	if _, _, err := InverseDistance(caller, 0); err == nil {
		t.Error("zero floor should fail")
	}
	if _, _, err := InverseDistance(caller, 1); err == nil {
		t.Error("floor of 1 should fail")
	}
}

func TestStepValidation(t *testing.T) {
	t.Parallel()
	pred := func(int) bool { return true }
	if _, _, err := Step(nil, 1, 0); err == nil {
		t.Error("nil predicate should fail")
	}
	if _, _, err := Step(pred, 0, 0); err == nil {
		t.Error("zero high should fail")
	}
	if _, _, err := Step(pred, 1, 2); err == nil {
		t.Error("low > high should fail")
	}
	if _, _, err := Step(pred, 1, -1); err == nil {
		t.Error("negative low should fail")
	}
}

func TestWeightOutOfRangeDetected(t *testing.T) {
	t.Parallel()
	_, _, uniform := setup(t, 11, 16)
	s, err := New(uniform, func(dht.Peer) float64 { return 2 }, 1, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(); err == nil {
		t.Error("weight above maxWeight must be detected")
	}
}

func TestName(t *testing.T) {
	t.Parallel()
	_, _, uniform := setup(t, 13, 8)
	s, err := New(uniform, func(dht.Peer) float64 { return 1 }, 1, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "biased" {
		t.Errorf("Name = %q", s.Name())
	}
}

// TestForkReplaysItsSeed: a fork draws its acceptance coins and its
// uniform sampler's stream from its seed alone — two forks of one seed
// agree sample by sample, a fork of another seed does not — and a
// sampler over a uniform sampler that cannot fork refuses to fork.
func TestForkReplaysItsSeed(t *testing.T) {
	t.Parallel()
	o, _, uniform := setup(t, 11, 64)
	w := func(p dht.Peer) float64 { return float64(1 + p.Owner%4) }
	s, err := New(uniform, w, 4, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []dht.Peer {
		f, err := s.Fork(seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]dht.Peer, 40)
		for i := range out {
			if out[i], err = f.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Errorf("forks of seed 7 agree: %t; seeds 7 and 8 agree: %t", slices.Equal(a, b), slices.Equal(a, c))
	}
	plain, err := New(struct{ dht.Sampler }{uniform}, w, 4, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Fork(1); err == nil {
		t.Errorf("a fork over a uniform sampler that cannot fork, over %d peers, succeeded", o.Size())
	}
}
