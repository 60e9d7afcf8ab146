package randompeer

import (
	"context"
	"time"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/engine"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Cost is a snapshot of the testbed's transport cost counters (RPC
// round trips, messages, failures).
type Cost = simnet.Cost

// Effort is a sampler's cumulative rejection effort: trials, next-walk
// steps and trials pruned at the distance horizon.
type Effort = dht.Effort

// ForkableSampler is a sampler that can produce independent clones for
// parallel work: Fork returns a sampler whose random stream is a pure
// function of seed and which shares no mutable state with its parent.
// Every sampler built by a Testbed implements it except AutoUniformSampler
// (whose refresh schedule is inherently shared state); SampleN uses it
// to keep batch results deterministic at any worker count.
type ForkableSampler = engine.Forker

// BatchResult reports one SampleN run.
type BatchResult struct {
	// Peers is the sampled peer at every index 0..k-1 (nil with
	// WithTallyOnly).
	Peers []Peer
	// Tally counts samples per owner index; it always sums to k.
	Tally []int64
	// Workers is the number of workers that ran.
	Workers int
	// Deterministic reports whether the result is a pure function of
	// the batch seed and k (true whenever the sampler is forkable).
	Deterministic bool
	// Cost is the testbed-wide transport cost charged during the run.
	// It is exact when nothing else used the testbed concurrently.
	Cost Cost
	// Effort totals the trials, next steps and pruned trials of the
	// run, so that Cost reads as trials x (h + walk). It is filled for
	// forkable samplers that count their effort (the uniform sampler)
	// and is, like Peers, a pure function of the batch seed and k.
	Effort Effort
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// BatchOption configures SampleN.
type BatchOption func(*batchOptions)

type batchOptions struct {
	workers   int
	seed      uint64
	seedSet   bool
	tallyOnly bool
}

// WithWorkers sets the worker pool size (default: GOMAXPROCS).
func WithWorkers(w int) BatchOption { return func(o *batchOptions) { o.workers = w } }

// WithBatchSeed roots the per-block sampler forks. With a forkable
// sampler, equal batch seeds and sample counts reproduce identical
// results at any worker count. The default is the testbed seed.
func WithBatchSeed(seed uint64) BatchOption {
	return func(o *batchOptions) { o.seed = seed; o.seedSet = true }
}

// WithTallyOnly drops the per-index peer log, keeping only the tally —
// the right choice for uniformity measurements with very large k.
func WithTallyOnly() BatchOption { return func(o *batchOptions) { o.tallyOnly = true } }

// SampleN draws k samples from s across a worker pool and returns the
// peers, per-owner tally and cost. If s implements
// ForkableSampler (all Testbed samplers except AutoUniformSampler do),
// each fixed-size block of sample indices runs on a private fork seeded
// deterministically from the batch seed and the block index, so the
// result is bit-for-bit reproducible regardless of the worker count.
// Otherwise all workers share s — still safe, but the interleaving of
// RNG draws (and hence the exact result) depends on scheduling, and
// throughput is limited by the sampler's own serialization:
// AutoUniformSampler serializes every call, so batches over it do not
// speed up with workers.
//
// ctx cancellation is observed between blocks; the first sampling error
// aborts the run.
func (tb *Testbed) SampleN(ctx context.Context, s Sampler, k int, opts ...BatchOption) (*BatchResult, error) {
	cfg := batchOptions{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.seedSet {
		cfg.seed = tb.seed
	}
	meter := tb.DHT().Meter()
	before := meter.Snapshot()
	start := time.Now()
	res, err := engine.SampleN(ctx, s, k, engine.Config{
		Workers:   cfg.workers,
		Seed:      cfg.seed,
		Owners:    tb.DHT().Owners(),
		TallyOnly: cfg.tallyOnly,
	})
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Peers:         res.Peers,
		Tally:         res.Tally,
		Workers:       res.Workers,
		Deterministic: res.Deterministic,
		Cost:          meter.Snapshot().Sub(before),
		Effort:        res.Effort,
		Elapsed:       time.Since(start),
	}, nil
}
