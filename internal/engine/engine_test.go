package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
)

func testOracle(t testing.TB, n int) *dht.Oracle {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 0xe41e))
	o, err := dht.GenerateOracle(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func testSampler(t testing.TB, o *dht.Oracle) *core.Sampler {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	s, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSampleNDeterministicAcrossWorkers is the core determinism
// contract: with a forkable sampler and a fixed seed, the sampled peer
// at every index is identical no matter how many workers run.
func TestSampleNDeterministicAcrossWorkers(t *testing.T) {
	o := testOracle(t, 512)
	s := testSampler(t, o)
	const k = 3000
	base, err := SampleN(context.Background(), s, k, Config{Workers: 1, Seed: 11, Owners: o.Owners(), BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Deterministic {
		t.Fatal("core sampler should fork deterministically")
	}
	if len(base.Peers) != k {
		t.Fatalf("got %d peers, want %d", len(base.Peers), k)
	}
	// The forks' effort is totalled: one success per sample, at least
	// one trial each, and only failed trials pruned.
	if e := base.Effort; e.Samples != k || e.Trials < k || e.Pruned > e.Trials-k || e.Steps <= 0 {
		t.Fatalf("effort of %d samples = %+v", k, e)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		got, err := SampleN(context.Background(), s, k, Config{Workers: workers, Seed: 11, Owners: o.Owners(), BlockSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Peers {
			if got.Peers[i] != base.Peers[i] {
				t.Fatalf("workers=%d: peer at index %d = %+v, want %+v", workers, i, got.Peers[i], base.Peers[i])
			}
		}
		if got.Effort != base.Effort {
			t.Fatalf("workers=%d: effort %+v, want %+v", workers, got.Effort, base.Effort)
		}
	}
	// A different seed must give a different sequence.
	other, err := SampleN(context.Background(), s, k, Config{Workers: 4, Seed: 12, Owners: o.Owners(), BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range base.Peers {
		if other.Peers[i] == base.Peers[i] {
			same++
		}
	}
	if same == k {
		t.Fatal("seed 12 reproduced seed 11's entire sequence")
	}
}

// TestSampleNMatchesShareableForks: SampleN hands each block an
// exclusive fork, which over the oracle runs on the oracle's trial
// runner: a private cost sum, lookups eight at a time, walks in the
// ring by index. The
// same blocks drawn through shareable Forks, which walk by Next and
// charge the meter call by call, must give the same tally, the same
// effort (samples, trials, steps, pruned) and the same calls charged.
// The other determinism tests compare SampleN only with itself. Rings
// of a few peers make most walks wrap past the last point.
func TestSampleNMatchesShareableForks(t *testing.T) {
	for _, n := range []int{2, 3, 7, 512} {
		o := testOracle(t, n)
		s := testSampler(t, o)
		const k, block = 2500, 256
		cfg := Config{Workers: 2, Seed: 41, BlockSize: block, Owners: o.Owners(), TallyOnly: true}
		before := o.Meter().Snapshot()
		got, err := SampleN(context.Background(), s, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotCost := o.Meter().Snapshot().Sub(before)
		tally := make([]int64, o.Owners())
		var effort dht.Effort
		before = o.Meter().Snapshot()
		for b := 0; b*block < k; b++ {
			f, err := s.Fork(BlockSeed(cfg.Seed, b))
			if err != nil {
				t.Fatal(err)
			}
			for i := b * block; i < min((b+1)*block, k); i++ {
				p, err := f.Sample()
				if err != nil {
					t.Fatal(err)
				}
				tally[p.Owner]++
			}
			effort = effort.Plus(f.(dht.EffortReporter).Stats())
		}
		wantCost := o.Meter().Snapshot().Sub(before)
		if !slices.Equal(got.Tally, tally) || got.Effort != effort || gotCost != wantCost {
			t.Fatalf("n = %d: SampleN drew tally %v, effort %+v, cost %+v; shareable forks %v, %+v, %+v",
				n, got.Tally, got.Effort, gotCost, tally, effort, wantCost)
		}
		if effort.Pruned == 0 || effort.Steps == 0 {
			t.Fatalf("n = %d: effort %+v walks no step or prunes no trial; the comparison misses a path", n, effort)
		}
	}
}

// TestSampleNTallyMatchesPeers checks the tally the workers add into
// against a recount of the peer log, and that every sample landed.
func TestSampleNTallyMatchesPeers(t *testing.T) {
	o := testOracle(t, 256)
	s := testSampler(t, o)
	const k = 2500
	res, err := SampleN(context.Background(), s, k, Config{Workers: 4, Seed: 3, Owners: o.Owners(), BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	recount := make([]int64, o.Owners())
	var total int64
	for _, p := range res.Peers {
		recount[p.Owner]++
	}
	for i := range recount {
		total += res.Tally[i]
		if recount[i] != res.Tally[i] {
			t.Fatalf("owner %d: tally %d, recount %d", i, res.Tally[i], recount[i])
		}
	}
	if total != k {
		t.Fatalf("tally sums to %d, want %d", total, k)
	}
}

// TestSampleNTallyOnly drops the peer log but keeps the tally, which
// must be identical to the logged run's (the draws are the same).
func TestSampleNTallyOnly(t *testing.T) {
	o := testOracle(t, 128)
	s := testSampler(t, o)
	const k = 1000
	logged, err := SampleN(context.Background(), s, k, Config{Workers: 3, Seed: 5, Owners: o.Owners(), BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := SampleN(context.Background(), s, k, Config{Workers: 5, Seed: 5, Owners: o.Owners(), BlockSize: 64, TallyOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Peers != nil {
		t.Fatal("TallyOnly kept the peer log")
	}
	for i := range logged.Tally {
		if logged.Tally[i] != bare.Tally[i] {
			t.Fatalf("owner %d: tally-only run counted %d, logged run %d", i, bare.Tally[i], logged.Tally[i])
		}
	}
}

// unforkable wraps a sampler, hiding its Fork method.
type unforkable struct{ s dht.Sampler }

func (u unforkable) Sample() (dht.Peer, error) { return u.s.Sample() }
func (u unforkable) Name() string              { return "unforkable-" + u.s.Name() }

// TestSampleNSharedFallback runs the engine over a sampler with no Fork:
// the run must complete with the full tally and report non-determinism.
func TestSampleNSharedFallback(t *testing.T) {
	o := testOracle(t, 128)
	s := unforkable{testSampler(t, o)}
	const k = 2000
	res, err := SampleN(context.Background(), s, k, Config{Workers: 8, Seed: 1, Owners: o.Owners(), BlockSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("unforkable sampler reported a deterministic run")
	}
	var total int64
	for _, c := range res.Tally {
		total += c
	}
	if total != k {
		t.Fatalf("tally sums to %d, want %d", total, k)
	}
}

// errSampler fails after a fixed number of samples.
type errSampler struct {
	mu   sync.Mutex
	left int
	s    dht.Sampler
}

func (e *errSampler) Sample() (dht.Peer, error) {
	e.mu.Lock()
	e.left--
	left := e.left
	e.mu.Unlock()
	if left < 0 {
		return dht.Peer{}, errors.New("boom")
	}
	return e.s.Sample()
}
func (e *errSampler) Name() string { return "err" }

// TestSampleNErrorAborts: the first sampling error must surface and
// stop the run.
func TestSampleNErrorAborts(t *testing.T) {
	o := testOracle(t, 64)
	es := &errSampler{left: 100, s: testSampler(t, o)}
	_, err := SampleN(context.Background(), es, 10000, Config{Workers: 4, Seed: 1, Owners: o.Owners(), BlockSize: 16})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want the sampler's error, got %v", err)
	}
}

// TestSampleNContextCancel: a canceled context aborts between blocks.
func TestSampleNContextCancel(t *testing.T) {
	o := testOracle(t, 64)
	s := testSampler(t, o)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SampleN(ctx, s, 100000, Config{Workers: 2, Seed: 1, Owners: o.Owners()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSampleNArgValidation covers the error paths of the config check.
func TestSampleNArgValidation(t *testing.T) {
	o := testOracle(t, 64)
	s := testSampler(t, o)
	if _, err := SampleN(context.Background(), nil, 10, Config{Owners: 64}); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := SampleN(context.Background(), s, -1, Config{Owners: 64}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := SampleN(context.Background(), s, 10, Config{}); err == nil {
		t.Fatal("missing owner count accepted")
	}
	res, err := SampleN(context.Background(), s, 0, Config{Owners: 64})
	if err != nil || len(res.Peers) != 0 {
		t.Fatalf("k=0 should return an empty result, got %v, %v", res, err)
	}
}

// TestSampleNStress hammers one shared forkable sampler with many
// concurrent SampleN runs *and* raw Sample calls — the -race regression
// gate for the whole concurrent surface (sharded meter, atomic stats,
// narrowed RNG locks).
func TestSampleNStress(t *testing.T) {
	o := testOracle(t, 256)
	s := testSampler(t, o)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := SampleN(context.Background(), s, 1500, Config{Workers: 4, Seed: uint64(g), Owners: o.Owners(), BlockSize: 64}); err != nil {
				errs <- fmt.Errorf("SampleN goroutine %d: %w", g, err)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := s.Sample(); err != nil {
					errs <- fmt.Errorf("raw Sample goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Stats().Samples; got < 4*300 {
		t.Fatalf("shared sampler recorded %d samples, want >= %d", got, 4*300)
	}
	// The batch runs above all charged the oracle's sharded meter.
	if c := o.Meter().Snapshot(); c.Calls <= 0 || c.Messages <= 0 {
		t.Fatalf("meter recorded no cost: %+v", c)
	}
}

// TestSampleNWithBaselines runs the engine over the naive and biased
// baselines to pin their Fork implementations.
func TestSampleNWithBaselines(t *testing.T) {
	o := testOracle(t, 128)
	naive := baseline.NewNaive(o, rand.New(rand.NewPCG(2, 2)))
	res, err := SampleN(context.Background(), naive, 1000, Config{Workers: 4, Seed: 9, Owners: o.Owners(), BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic {
		t.Fatal("naive sampler should fork deterministically")
	}
	again, err := SampleN(context.Background(), naive, 1000, Config{Workers: 2, Seed: 9, Owners: o.Owners(), BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Peers {
		if res.Peers[i] != again.Peers[i] {
			t.Fatalf("naive engine run not reproducible at index %d", i)
		}
	}
}

// TestBlockSeedSpread sanity-checks that consecutive blocks get well-
// separated seeds.
func TestBlockSeedSpread(t *testing.T) {
	seen := map[uint64]int{}
	for b := 0; b < 10000; b++ {
		s := BlockSeed(42, b)
		if prev, dup := seen[s]; dup {
			t.Fatalf("blocks %d and %d share seed %#x", prev, b, s)
		}
		seen[s] = b
	}
}
