package randompeer

import (
	"math"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/stats"
)

func TestNewDefaults(t *testing.T) {
	t.Parallel()
	tb, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Size() != 128 {
		t.Errorf("Size = %d, want default 128", tb.Size())
	}
	if tb.DHT() == nil {
		t.Fatal("nil DHT")
	}
	if tb.ChordNetwork() != nil {
		t.Error("oracle backend should have no chord network")
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(WithPeers(0)); err == nil {
		t.Error("zero peers should fail")
	}
	if _, err := New(WithBackend(Backend(99))); err == nil {
		t.Error("unknown backend should fail")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	t.Parallel()
	a, err := New(WithPeers(64), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithPeers(64), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		pa, err := a.Peer(i)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Peer(i)
		if err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("peer %d differs across identical seeds", i)
		}
	}
}

func TestUniformSamplerOnBothBackends(t *testing.T) {
	t.Parallel()
	for _, backend := range []Backend{OracleBackend, ChordBackend} {
		tb, err := New(WithPeers(64), WithSeed(3), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		s, err := tb.UniformSampler(11)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, tb.Size())
		for i := 0; i < 30*tb.Size(); i++ {
			p, err := s.Sample()
			if err != nil {
				t.Fatal(err)
			}
			counts[p.Owner]++
		}
		_, pvalue, err := stats.ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if pvalue < 1e-4 {
			t.Errorf("backend %d: uniformity rejected (p = %v)", backend, pvalue)
		}
	}
}

func TestNaiveSamplerBiased(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(64), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s := tb.NaiveSampler(13)
	counts := make([]int64, tb.Size())
	for i := 0; i < 100*tb.Size(); i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	_, pvalue, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if pvalue > 1e-3 {
		t.Errorf("naive sampler unexpectedly uniform (p = %v)", pvalue)
	}
}

func TestEstimateSize(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(2048), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.EstimateSize(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.NHat / 2048
	if ratio < 2.0/7.0-0.05 || ratio > 6.05 {
		t.Errorf("estimate ratio %v outside Lemma 3 band", ratio)
	}
	if _, err := tb.EstimateSize(-1, 2); err == nil {
		t.Error("bad caller should fail")
	}
}

func TestVerifyUniformity(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(512), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	a, err := tb.VerifyUniformity(0) // true n
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Measure) != 512 {
		t.Fatalf("measure over %d peers", len(a.Measure))
	}
	rel := float64(a.MaxDeviation) / float64(a.Lambda)
	if rel > math.Pow(2, -30) {
		t.Errorf("relative deviation %v breaks the exactness claim", rel)
	}
	// With an overestimate the partition still assigns exactly lambda.
	a2, err := tb.VerifyUniformity(3 * 512)
	if err != nil {
		t.Fatal(err)
	}
	if rel := float64(a2.MaxDeviation) / float64(a2.Lambda); rel > math.Pow(2, -30) {
		t.Errorf("overestimate run deviation %v", rel)
	}
}

func TestPeerAccessor(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(8))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tb.Peer(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner != 3 {
		t.Errorf("Owner = %d", p.Owner)
	}
	if _, err := tb.Peer(8); err == nil {
		t.Error("out-of-range peer should fail")
	}
}

func TestAutoUniformSamplerFacade(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(64), WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.AutoUniformSampler(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, tb.Size())
	for i := 0; i < 30*tb.Size(); i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	_, pvalue, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if pvalue < 1e-4 {
		t.Errorf("auto sampler rejected (p = %v)", pvalue)
	}
	if s.Name() != "king-saia-auto" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestBiasedSamplerFacade(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(128), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	w, maxW, err := tb.InverseDistanceWeight(0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.BiasedSampler(9, w, maxW)
	if err != nil {
		t.Fatal(err)
	}
	caller, err := tb.Peer(0)
	if err != nil {
		t.Fatal(err)
	}
	near, total := 0, 3000
	for i := 0; i < total; i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if float64(p.Point-caller.Point)/(1<<63)/2 < 0.5 {
			near++
		}
	}
	if frac := float64(near) / float64(total); frac < 0.6 {
		t.Errorf("near-half mass = %v, inverse-distance bias missing", frac)
	}
	if _, _, err := tb.InverseDistanceWeight(-1, 0.05); err == nil {
		t.Error("bad caller should fail")
	}
	if _, err := tb.BiasedSampler(9, nil, 1); err == nil {
		t.Error("nil weight should fail")
	}
}

func TestMetropolisSamplerFacade(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(64), WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.MetropolisSampler(3, 24)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, tb.Size())
	for i := 0; i < 60*tb.Size(); i++ {
		p, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	_, pvalue, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if pvalue < 1e-4 {
		t.Errorf("metropolis sampler rejected (p = %v)", pvalue)
	}
	// Chord backend refuses.
	cb, err := New(WithPeers(16), WithBackend(ChordBackend))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.MetropolisSampler(1, 4); err == nil {
		t.Error("chord backend should refuse metropolis sampler")
	}
}

// TestMetropolisSamplerRepeatsUnderSeed: two testbeds with equal seeds
// must walk the same overlay graph in the same order.
func TestMetropolisSamplerRepeatsUnderSeed(t *testing.T) {
	t.Parallel()
	draw := func() []Peer {
		tb, err := New(WithPeers(64), WithSeed(33))
		if err != nil {
			t.Fatal(err)
		}
		s, err := tb.MetropolisSampler(3, 12)
		if err != nil {
			t.Fatal(err)
		}
		peers := make([]Peer, 200)
		for i := range peers {
			if peers[i], err = s.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		return peers
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v under equal seeds", i, a[i], b[i])
		}
	}
}

func TestUniformSamplerFromOtherCaller(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(256), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.UniformSamplerFrom(100, 5, SamplerConfig{C1: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.UniformSamplerFrom(-1, 5, SamplerConfig{}); err == nil {
		t.Error("bad caller index should fail")
	}
}

// TestSimTimePreservesSamplingAcrossBackends: turning on the virtual
// clock must be cost-model-only — the same seeds draw the identical
// peer sequence with and without simulated time on every backend —
// while virtual time and the latency histogram actually advance.
func TestSimTimePreservesSamplingAcrossBackends(t *testing.T) {
	t.Parallel()
	const n, draws = 64, 20
	for _, b := range Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			model, err := ParseLatencyModel("constant:1ms")
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(WithPeers(n), WithSeed(5), WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			timed, err := New(WithPeers(n), WithSeed(5), WithBackend(b), WithLatencyModel(model))
			if err != nil {
				t.Fatal(err)
			}
			if plain.SimTime() || !timed.SimTime() {
				t.Fatalf("SimTime() = %v/%v, want false/true", plain.SimTime(), timed.SimTime())
			}
			ps, err := plain.UniformSampler(9)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := timed.UniformSampler(9)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < draws; i++ {
				pp, err := ps.Sample()
				if err != nil {
					t.Fatal(err)
				}
				tp, err := ts.Sample()
				if err != nil {
					t.Fatal(err)
				}
				if pp != tp {
					t.Fatalf("draw %d: plain %v, timed %v — sim time changed sampling", i, pp, tp)
				}
			}
			if plain.VirtualTime() != 0 {
				t.Errorf("plain testbed advanced virtual time: %v", plain.VirtualTime())
			}
			elapsed := timed.VirtualTime()
			lat := timed.Latency()
			if elapsed <= 0 || lat.Count <= 0 {
				t.Fatalf("timed testbed: virtual time %v, latency count %d — want both positive", elapsed, lat.Count)
			}
			// Constant model: total virtual time == RPC count x 1ms.
			if want := time.Duration(lat.Count) * time.Millisecond; elapsed != want {
				t.Errorf("virtual time %v, want %v (%d RPCs x 1ms)", elapsed, want, lat.Count)
			}
			if mean := lat.Mean(); mean != time.Millisecond {
				t.Errorf("mean RPC latency %v, want 1ms", mean)
			}
		})
	}
}

// TestFaultSpecsRejectNonFinite: strconv.ParseFloat accepts NaN, and a
// NaN passes every range check, so the attack and partition entry
// points must reject it themselves (a NaN route-bias fraction used to
// panic compiling the plan; a NaN partition fraction cut a peer off).
func TestFaultSpecsRejectNonFinite(t *testing.T) {
	t.Parallel()
	tb, err := New(WithPeers(32), WithBackend(ChordBackend), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"route-bias:NaN", "censor:nan"} {
		if _, err := tb.InstallAdversary(spec, 1); err == nil {
			t.Errorf("InstallAdversary(%q) succeeded, want error", spec)
		}
	}
	if err := tb.PartitionFraction("nan", math.NaN(), 1); err == nil {
		t.Error("PartitionFraction(NaN) succeeded, want error")
	}
}
