package engine

import (
	"context"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// The engine's determinism tests show that a run's stream is a pure
// function of (Seed, k); these show that the stream is also what
// Theorem 6 promises of consecutive samples: independent draws. A
// uniform tally does not: a sampler that returned the peers in a
// shuffled round robin, or two block forks that shared a generator,
// would pass every chi-square on the histogram. Seeds are fixed and the
// threshold is the repository benchmark's uniformity α, so a failure
// here is a defect, not a one-in-a-million draw.

// streamAlpha is the significance level below which a stream test fails.
const streamAlpha = 1e-6

// streamPeers is the ring size of the stream tests: small, so that each
// of the n² pairs of consecutive owners is expected many times.
const streamPeers = 16

// TestSampleNStreamIndependence runs Good's serial test on the owners of
// consecutive sample indices of one run, at 1, 2 and 8 workers, across
// the block boundaries where one fork hands over to the next. It then
// collides the run's even blocks with its odd blocks, and the run with
// one at another seed: sibling block forks, and two runs, must agree on
// a sample index no more often than independent uniform draws do.
func TestSampleNStreamIndependence(t *testing.T) {
	o := testOracle(t, streamPeers)
	s := testSampler(t, o)
	const k = 40 * streamPeers * streamPeers // 40 expected a pair cell
	run := func(workers int, seed uint64) []int {
		t.Helper()
		res, err := SampleN(context.Background(), s, k, Config{Workers: workers, Seed: seed, Owners: o.Owners()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Workers != workers {
			t.Fatalf("ran %d workers, want %d", res.Workers, workers)
		}
		seq := make([]int, k)
		for i, p := range res.Peers {
			seq[i] = p.Owner
		}
		return seq
	}
	var seq []int
	for _, workers := range []int{1, 2, 8} {
		seq = run(workers, 21)
		stat, p, err := stats.SerialChiSquare(seq, o.Owners())
		if err != nil {
			t.Fatal(err)
		}
		if p < streamAlpha {
			t.Errorf("workers=%d: consecutive samples are dependent: serial chi2 = %.1f, p = %.3g", workers, stat, p)
		}
	}

	var even, odd []int
	for lo := 0; lo+2*DefaultBlockSize <= k; lo += 2 * DefaultBlockSize {
		even = append(even, seq[lo:lo+DefaultBlockSize]...)
		odd = append(odd, seq[lo+DefaultBlockSize:lo+2*DefaultBlockSize]...)
	}
	for name, pair := range map[string][2][]int{
		"even and odd blocks": {even, odd},
		"seeds 21 and 22":     {seq, run(2, 22)},
	} {
		c, p, err := stats.Collisions(pair[0], pair[1], o.Owners())
		if err != nil {
			t.Fatal(err)
		}
		if p < streamAlpha {
			t.Errorf("%s: %d of %d sample indices agree (%.0f expected), p = %.3g", name, c, len(pair[0]), float64(len(pair[0]))/float64(o.Owners()), p)
		}
	}
}

// TestForkStreamsIndependent draws from sibling forks of one sampler,
// seeded as two neighbouring blocks of a run would be, through Fork and
// through ForkExclusive. Each fork's own stream must pass the serial
// test, and no two siblings may collide more or less often than
// independent uniform streams, in any pairing of the two constructors.
func TestForkStreamsIndependent(t *testing.T) {
	o := testOracle(t, streamPeers)
	s := testSampler(t, o)
	const k = 20 * streamPeers * streamPeers
	draw := func(f dht.Sampler, err error) []int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, k)
		for i := range out {
			p, err := f.Sample()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = p.Owner
		}
		return out
	}
	a, b := BlockSeed(5, 0), BlockSeed(5, 1)
	streams := map[string][]int{
		"Fork(a)":          draw(s.Fork(a)),
		"Fork(b)":          draw(s.Fork(b)),
		"ForkExclusive(a)": draw(s.ForkExclusive(a)),
		"ForkExclusive(b)": draw(s.ForkExclusive(b)),
	}
	for name, seq := range streams {
		if _, p, err := stats.SerialChiSquare(seq, o.Owners()); err != nil || p < streamAlpha {
			t.Errorf("%s: consecutive samples are dependent: p = %.3g, err = %v", name, p, err)
		}
	}
	// The two constructors draw one stream per seed: the same peers.
	for i := range streams["Fork(a)"] {
		if streams["Fork(a)"][i] != streams["ForkExclusive(a)"][i] {
			t.Fatalf("Fork and ForkExclusive of one seed differ at draw %d", i)
		}
	}
	for _, pair := range [][2]string{
		{"Fork(a)", "Fork(b)"},
		{"ForkExclusive(a)", "ForkExclusive(b)"},
		{"Fork(a)", "ForkExclusive(b)"},
	} {
		c, p, err := stats.Collisions(streams[pair[0]], streams[pair[1]], o.Owners())
		if err != nil {
			t.Fatal(err)
		}
		if p < streamAlpha {
			t.Errorf("%s and %s agree at %d of %d draws (%.0f expected), p = %.3g", pair[0], pair[1], c, k, float64(k)/float64(o.Owners()), p)
		}
	}
}
