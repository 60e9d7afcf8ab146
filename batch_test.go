package randompeer

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
)

// TestSampleNFacadeDeterminism: the facade batch API must reproduce the
// same multiset (indeed the same sequence) of peers for a fixed batch
// seed at every worker count, on both the uniform and naive samplers.
func TestSampleNFacadeDeterminism(t *testing.T) {
	tb, err := New(WithPeers(512), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	us, err := tb.UniformSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sampler{us, tb.NaiveSampler(6)} {
		base, err := tb.SampleN(context.Background(), s, 2000, WithWorkers(1), WithBatchSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		if !base.Deterministic {
			t.Fatalf("%s: batch run not deterministic", s.Name())
		}
		for _, workers := range []int{2, 8} {
			got, err := tb.SampleN(context.Background(), s, 2000, WithWorkers(workers), WithBatchSeed(77))
			if err != nil {
				t.Fatal(err)
			}
			for i := range base.Peers {
				if got.Peers[i] != base.Peers[i] {
					t.Fatalf("%s workers=%d: peer %d differs", s.Name(), workers, i)
				}
			}
		}
	}
}

// TestSampleNFacadeTallyAndCost: the tally must sum to k and the batch
// must charge the testbed meter (per-sample cost ~ O(log n) calls).
func TestSampleNFacadeTallyAndCost(t *testing.T) {
	tb, err := New(WithPeers(1024), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.UniformSampler(9)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3000
	res, err := tb.SampleN(context.Background(), s, k, WithWorkers(4), WithTallyOnly())
	if err != nil {
		t.Fatal(err)
	}
	if res.Peers != nil {
		t.Fatal("WithTallyOnly kept the peer log")
	}
	if len(res.Tally) != tb.Size() {
		t.Fatalf("tally over %d owners, want %d", len(res.Tally), tb.Size())
	}
	var total int64
	for _, c := range res.Tally {
		total += c
	}
	if total != k {
		t.Fatalf("tally sums to %d, want %d", total, k)
	}
	if res.Cost.Calls < k {
		t.Fatalf("batch charged only %d calls for %d samples", res.Cost.Calls, k)
	}
}

// stepwiseDHT forwards dht.DHT and nothing else, so a sampler over it
// sees no dht.Trials and runs every trial as dht.NewRunner does, each H
// and Next charged to the shared meter — the reference accounting.
type stepwiseDHT struct{ dht.DHT }

// TestSampleNTrialsCostIdentity: on the oracle the cost model is an
// identity between two layers' counters — the meter (internal/dht) must
// read ceil(log2 n) calls for every trial and one for every next step
// the samplers (internal/core) counted, two messages a call — and it
// must hold exactly at any worker count although every block's fork
// runs on the oracle's runner, which sums its cost privately until
// Flush: a runner left unflushed shows up as missing calls. Peers,
// tally, effort and cost must also equal those of a run that cannot
// take the oracle's runner at all.
func TestSampleNTrialsCostIdentity(t *testing.T) {
	t.Parallel()
	const n, k, batchSeed = 5000, 6000, 41
	tb, err := New(WithPeers(n), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.UniformSampler(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.DHT().(dht.Trials); !ok {
		t.Fatal("the oracle testbed's DHT runs no trials of its own")
	}
	self, err := tb.Peer(0)
	if err != nil {
		t.Fatal(err)
	}
	stepwise, err := core.New(stepwiseDHT{tb.DHT()}, self, rand.New(rand.NewPCG(12, 12)), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tb.SampleN(context.Background(), stepwise, k, WithWorkers(1), WithBatchSeed(batchSeed))
	if err != nil {
		t.Fatal(err)
	}
	hops := int64(bits.Len(uint(n - 1))) // ceil(log2 n)
	for _, workers := range []int{1, 2, 8} {
		got, err := tb.SampleN(context.Background(), s, k, WithWorkers(workers), WithBatchSeed(batchSeed))
		if err != nil {
			t.Fatal(err)
		}
		if want := hops*got.Effort.Trials + got.Effort.Steps; got.Cost.Calls != want || got.Cost.Messages != 2*want {
			t.Errorf("workers=%d: cost %+v, want %d calls (%d·%d trials + %d steps) and twice as many messages",
				workers, got.Cost, want, hops, got.Effort.Trials, got.Effort.Steps)
		}
		if got.Effort != ref.Effort || got.Cost != ref.Cost {
			t.Errorf("workers=%d: effort %+v cost %+v, stepwise reference %+v %+v", workers, got.Effort, got.Cost, ref.Effort, ref.Cost)
		}
		for i := range ref.Peers {
			if got.Peers[i] != ref.Peers[i] {
				t.Fatalf("workers=%d: peer %d is %+v, stepwise reference %+v", workers, i, got.Peers[i], ref.Peers[i])
			}
		}
		for owner := range ref.Tally {
			if got.Tally[owner] != ref.Tally[owner] {
				t.Fatalf("workers=%d: tally[%d] = %d, stepwise reference %d", workers, owner, got.Tally[owner], ref.Tally[owner])
			}
		}
	}
}

// TestSampleNFacadeStress hammers one testbed from concurrent batch
// runs and raw Sample calls at once — the facade-level -race gate.
// It runs on every backend: the protocol backends drive concurrent
// lookups through their own locking (Chord's node state, Kademlia's
// routing tables and ring pointers), which no single-goroutine
// conformance test exercises.
func TestSampleNFacadeStress(t *testing.T) {
	t.Parallel()
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			t.Parallel()
			n, batch, raw := 256, 1000, 200
			if backend != OracleBackend {
				n, batch, raw = 64, 300, 60 // real lookups are pricier
			}
			tb, err := New(WithPeers(n), WithSeed(8), WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			s, err := tb.UniformSampler(2)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if _, err := tb.SampleN(context.Background(), s, batch, WithWorkers(4), WithBatchSeed(uint64(g))); err != nil {
						errs <- err
					}
				}(g)
			}
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < raw; i++ {
						if _, err := s.Sample(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestSampleNFacadeAuto: AutoUniformSampler is not forkable, so the
// batch must fall back to the shared-sampler mode and still complete.
func TestSampleNFacadeAuto(t *testing.T) {
	tb, err := New(WithPeers(128), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.AutoUniformSampler(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.SampleN(context.Background(), s, 1200, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic {
		t.Fatal("auto sampler cannot be deterministic across workers")
	}
	var total int64
	for _, c := range res.Tally {
		total += c
	}
	if total != 1200 {
		t.Fatalf("tally sums to %d, want 1200", total)
	}
}

// TestForkableSamplers pins which facade samplers implement
// ForkableSampler.
func TestForkableSamplers(t *testing.T) {
	tb, err := New(WithPeers(128), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	us, err := tb.UniformSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	w, maxW, err := tb.InverseDistanceWeight(0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tb.BiasedSampler(1, w, maxW)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tb.MetropolisSampler(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := tb.AutoUniformSampler(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    Sampler
		want bool
	}{
		{us, true},
		{tb.NaiveSampler(2), true},
		{bs, true},
		{ms, true},
		{auto, false},
	} {
		if _, ok := tc.s.(ForkableSampler); ok != tc.want {
			t.Errorf("%s: forkable = %v, want %v", tc.s.Name(), ok, tc.want)
		}
	}
}
