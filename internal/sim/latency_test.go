package sim

import (
	"math"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// simnetNodeID shortens casts in table-style assertions.
type simnetNodeID = simnet.NodeID

func TestConstantModel(t *testing.T) {
	m := Constant{RTT: 3 * time.Millisecond}
	for _, u := range []float64{0, 0.5, 0.999} {
		if got := m.Latency(1, 2, u); got != 3*time.Millisecond {
			t.Errorf("Latency(u=%v) = %v, want 3ms", u, got)
		}
	}
}

func TestUniformModelRangeAndMean(t *testing.T) {
	m := Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}
	s := NewStream(7)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.Latency(1, 2, s.U01())
		if d < m.Min || d > m.Max {
			t.Fatalf("draw %v outside [%v, %v]", d, m.Min, m.Max)
		}
		sum += d
	}
	mean := float64(sum) / n
	want := float64(3 * time.Millisecond)
	if math.Abs(mean-want)/want > 0.03 {
		t.Errorf("mean = %v, want about %v", time.Duration(mean), time.Duration(want))
	}
}

func TestLogNormalModelMedian(t *testing.T) {
	m := LogNormal{Median: 2 * time.Millisecond, Sigma: 0.5}
	// At u = 0.5 the normal quantile is 0, so the draw is exactly the
	// median.
	if got := m.Latency(1, 2, 0.5); got != 2*time.Millisecond {
		t.Errorf("Latency(0.5) = %v, want the median 2ms", got)
	}
	// Empirical median over a stream should sit near the configured one.
	s := NewStream(9)
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Latency(1, 2, s.U01()) < m.Median {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.47 || frac > 0.53 {
		t.Errorf("fraction below median = %v, want about 0.5", frac)
	}
}

func TestStragglerModel(t *testing.T) {
	m := Straggler{Base: Constant{RTT: time.Millisecond}, Fraction: 0.25, Factor: 10, Seed: 42}
	stragglers := 0
	const ids = 4000
	for id := 0; id < ids; id++ {
		if m.IsStraggler(simnetNodeID(id)) {
			stragglers++
		}
	}
	if frac := float64(stragglers) / ids; frac < 0.2 || frac > 0.3 {
		t.Errorf("straggler fraction = %v, want about 0.25", frac)
	}
	// Find one straggler and one normal node; check the multiplier.
	var slow, fast simnetNodeID
	foundSlow, foundFast := false, false
	for id := 0; id < ids && (!foundSlow || !foundFast); id++ {
		if m.IsStraggler(simnetNodeID(id)) {
			slow, foundSlow = simnetNodeID(id), true
		} else {
			fast, foundFast = simnetNodeID(id), true
		}
	}
	if !foundSlow || !foundFast {
		t.Fatal("could not find both a straggler and a normal node")
	}
	if got := m.Latency(fast, fast, 0.5); got != time.Millisecond {
		t.Errorf("normal-normal latency = %v, want 1ms", got)
	}
	if got := m.Latency(fast, slow, 0.5); got != 10*time.Millisecond {
		t.Errorf("normal-straggler latency = %v, want 10ms", got)
	}
	if got := m.Latency(slow, slow, 0.5); got != 100*time.Millisecond {
		t.Errorf("straggler-straggler latency = %v, want 100ms", got)
	}
	// Determinism: same seed, same straggler set.
	m2 := Straggler{Base: Constant{RTT: time.Millisecond}, Fraction: 0.25, Factor: 10, Seed: 42}
	for id := 0; id < 100; id++ {
		if m.IsStraggler(simnetNodeID(id)) != m2.IsStraggler(simnetNodeID(id)) {
			t.Fatalf("straggler set differs at id %d for equal seeds", id)
		}
	}
}

func TestParseModelRoundTrips(t *testing.T) {
	// Name emits the canonical spec; parsing that spec must yield an
	// identical model (same Name, same draws).
	specs := []string{
		"constant:1ms",
		"uniform:500µs-5ms",
		"lognormal:2ms,0.6",
		"straggler:0.1,8,constant:1ms",
		"straggler:0.1,8,42,constant:1ms", // explicit straggler seed
	}
	for _, spec := range specs {
		m, err := ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		name := m.Name()
		m2, err := ParseModel(name)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", name, err)
		}
		if m2.Name() != name {
			t.Errorf("canonical form not stable: %q -> %q", name, m2.Name())
		}
		if m2 != m {
			t.Errorf("ParseModel(%q.Name()) = %#v, want identical model %#v", spec, m2, m)
		}
	}
	// The seedless straggler form gets the documented default seed, so
	// equal flag values always select the equal straggler set.
	m, err := ParseModel("straggler:0.25,4,constant:1ms")
	if err != nil {
		t.Fatal(err)
	}
	if s := m.(Straggler); s.Seed != DefaultStragglerSeed {
		t.Errorf("default seed = %d, want %d", s.Seed, DefaultStragglerSeed)
	}
}

func TestParseModelErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus:1ms", "constant:", "constant:xyz", "constant:-1ms",
		"uniform:1ms", "uniform:5ms-1ms", "uniform:-1ms-1ms",
		"lognormal:2ms", "lognormal:2ms,-1", "lognormal:-2ms,0.5",
		"straggler:0.1,8", "straggler:2,8,constant:1ms",
		// strconv accepts these; a NaN passes every range check.
		"lognormal:2ms,NaN", "lognormal:2ms,Inf", "lognormal:2ms,+Inf",
		"straggler:NaN,8,constant:1ms", "straggler:0.1,NaN,constant:1ms",
		"straggler:0.1,Inf,constant:1ms",
	} {
		if _, err := ParseModel(spec); err == nil {
			t.Errorf("ParseModel(%q) succeeded, want error", spec)
		}
	}
}

// FuzzParseModel: any spec ParseModel accepts names a model whose
// canonical Name parses back to an equal model, and whose draws are
// non-negative for every u in [0, 1) — the transport clamps a negative
// draw to zero silently, so the model must not produce one.
func FuzzParseModel(f *testing.F) {
	for _, spec := range []string{
		"constant:1ms", "uniform:500µs-5ms", "lognormal:2ms,0.6",
		"straggler:0.1,8,constant:1ms", "straggler:0.5,8,42,lognormal:2ms,0.6",
		"lognormal:2ms,NaN", "lognormal:1h,900", "straggler:1,1e300,constant:1h",
		"uniform:0s-2562047h47m16.854775807s",
	} {
		f.Add(spec, uint64(1), uint64(2), uint64(1)<<62)
	}
	f.Fuzz(func(t *testing.T, spec string, from, to, bits uint64) {
		m, err := ParseModel(spec)
		if err != nil {
			return
		}
		name := m.Name()
		m2, err := ParseModel(name)
		if err != nil {
			t.Fatalf("ParseModel(%q) accepted, but its Name %q does not parse: %v", spec, name, err)
		}
		if m2 != m {
			t.Fatalf("ParseModel(%q).Name() = %q parses to %#v, want %#v", spec, name, m2, m)
		}
		// u from the fuzzer's word exactly as Stream draws it, plus both
		// ends of [0, 1).
		for _, u := range []float64{float64(bits>>11) / (1 << 53), 0, math.Nextafter(1, 0)} {
			if d := m.Latency(simnetNodeID(from), simnetNodeID(to), u); d < 0 {
				t.Fatalf("%s: Latency(%d, %d, %v) = %v, want >= 0", name, from, to, u, d)
			}
		}
	})
}

func TestStreamDeterministic(t *testing.T) {
	a, b := NewStream(5), NewStream(5)
	for i := 0; i < 100; i++ {
		x, y := a.U01(), b.U01()
		if x != y {
			t.Fatalf("draw %d differs: %v vs %v", i, x, y)
		}
		if x < 0 || x >= 1 {
			t.Fatalf("draw %d = %v outside [0,1)", i, x)
		}
	}
	if c := NewStream(6).U01(); c == NewStream(5).U01() {
		t.Error("different seeds produced the same first draw")
	}
}
