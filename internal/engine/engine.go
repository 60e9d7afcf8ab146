// Package engine is the concurrent batch sampling engine: it fans a
// request for k samples out over a worker pool while keeping the result
// deterministic for a fixed seed, independent of the worker count.
//
// # Design
//
// The work is split into fixed-size blocks of consecutive sample
// indices. Randomness is keyed to the block, not the worker: for each
// block the engine derives a per-block seed from (Seed, block index)
// with a SplitMix64 mix and forks the sampler into a private clone
// seeded with it (see Forker). Workers pull block indices from an
// atomic counter, so scheduling decides only *who* executes a block,
// never *what* the block draws — the multiset (and, position by
// position, the sequence) of sampled peers is a pure function of the
// seed and k. Beyond its fork's own state and its block's slots of
// the peer log, the hot loop writes two shared things: whatever the
// fork charges the DHT's cost meter (once a sample for an exclusive
// fork over the oracle, whose trial runner sums its cost privately;
// once an RPC otherwise), and one atomic add per sample into the result's tally. A
// tally is a sum, so it is the same at any worker count and under any
// schedule, and a run allocates one n-entry tally however many workers
// it has.
//
// The tally add is not the shared-meter problem of DESIGN §6 ("Trials
// a DHT runs") again. The meter took ≈ 92 charges a sample on 16 shared
// cache lines, so two workers fetched a line from each other's core
// many times per sample. The tally takes one write a sample, spread
// over Owners/8 lines, so a line moves between cores at most once per
// sample, against at least 0.5 µs of sampling.
//
// Within a block, an exclusive fork over the oracle also looks ahead:
// the oracle's trial runner (dht.Trials) draws the starts of its next
// eight trials at once and resolves their h lookups in one pass, so
// the cache misses of eight ring searches overlap instead of each
// waiting for the walk before it. The fork's stream is its own and is read in the
// same order, so this changes no peer, effort or charge; starts left
// over at the end of a block die with its fork.
//
// Samplers that cannot fork (for example core.AutoSampler, whose
// refresh schedule is inherently shared state) are still supported:
// every sampler in this module is safe for concurrent use, so the
// engine falls back to hammering the shared sampler from all workers.
// In that mode the interleaving of RNG draws — and hence the exact
// result — depends on scheduling, and throughput is bounded by the
// sampler's own serialization: core.AutoSampler serializes every call
// under one mutex, so batches over it gain nothing from extra workers.
// Result.Deterministic reports which mode ran.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/dht"
)

// Forker is the optional capability the engine uses to give each block
// of work a private sampler: Fork must return an independent sampler
// whose random stream is a pure function of seed and which shares no
// mutable state with its parent. All samplers in this module except
// core.AutoSampler implement it.
type Forker interface {
	dht.Sampler
	Fork(seed uint64) (dht.Sampler, error)
}

// ExclusiveForker is an optional refinement of Forker: ForkExclusive
// returns a fork drawing the same random stream as Fork(seed) — so
// results stay bit-identical — that skips all internal synchronization
// in exchange for being confined to a single goroutine. The engine uses
// it when available, because every block of work runs on exactly one
// worker; each fork then samples with no mutex on the hot path.
type ExclusiveForker interface {
	Forker
	ForkExclusive(seed uint64) (dht.Sampler, error)
}

// DefaultBlockSize is the number of consecutive sample indices a worker
// claims at a time. It amortizes the per-block fork and effort
// bookkeeping while keeping ~worker-count blocks of tail imbalance small.
const DefaultBlockSize = 512

// Config tunes a SampleN run. The zero value selects GOMAXPROCS
// workers, DefaultBlockSize, seed 0 and peer retention.
type Config struct {
	// Workers is the worker pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// Seed roots the per-block sampler forks. For a forkable sampler,
	// equal (Seed, k) yield identical results at any worker count.
	Seed uint64
	// BlockSize overrides DefaultBlockSize (mainly for tests).
	BlockSize int
	// Owners sizes the tally. It must be the number of distinct owners
	// of the DHT being sampled (dht.Owners()).
	Owners int
	// TallyOnly drops the per-index peer log, keeping only the tally —
	// the right choice for uniformity sweeps with huge k, where the
	// peer log would dominate memory.
	TallyOnly bool
}

// Result is the outcome of one batch run.
type Result struct {
	// Peers holds the sampled peer at every sample index (nil when
	// TallyOnly was set).
	Peers []dht.Peer
	// Tally counts samples per owner index.
	Tally []int64
	// Workers is the number of workers that ran.
	Workers int
	// Blocks is the number of work blocks the run was split into.
	Blocks int
	// Deterministic reports whether per-block forking was used, making
	// the result a pure function of (Seed, k).
	Deterministic bool
	// Effort totals the rejection effort of the per-block forks, for
	// samplers that report it (dht.EffortReporter); like the peers it
	// is a pure function of (Seed, k). It is zero for other samplers
	// and in shared-sampler mode.
	Effort dht.Effort
}

// splitmix64 is the standard SplitMix64 finalizer, used to spread
// consecutive block indices into well-separated PCG seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BlockSeed derives the sampler seed for block b of a run rooted at
// seed. It is exported so tests and tools can reproduce any block in
// isolation.
func BlockSeed(seed uint64, b int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(b)+1))
}

// SampleN draws k samples from s using a pool of workers and returns
// the result. See the package comment for the determinism contract. A
// nil ctx is treated as context.Background(); cancellation is observed
// between blocks, returning ctx.Err(). The first sampling error aborts
// the run.
func SampleN(ctx context.Context, s dht.Sampler, k int, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s == nil {
		return nil, fmt.Errorf("engine: nil sampler")
	}
	if k < 0 {
		return nil, fmt.Errorf("engine: negative sample count %d", k)
	}
	if cfg.Owners <= 0 {
		return nil, fmt.Errorf("engine: config needs the owner count, got %d", cfg.Owners)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	blockSize := cfg.BlockSize
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blocks := (k + blockSize - 1) / blockSize
	if workers > blocks && blocks > 0 {
		workers = blocks
	}

	forker, deterministic := s.(Forker)
	fork := func(seed uint64) (dht.Sampler, error) { return forker.Fork(seed) }
	if ex, ok := s.(ExclusiveForker); ok {
		// Same streams, no RNG locking: each block is single-goroutine.
		fork = ex.ForkExclusive
	}
	res := &Result{
		Tally:         make([]int64, cfg.Owners),
		Workers:       workers,
		Blocks:        blocks,
		Deterministic: deterministic,
	}
	if !cfg.TallyOnly {
		res.Peers = make([]dht.Peer, k)
	}
	if k == 0 {
		return res, nil
	}

	var (
		next     atomic.Int64 // next unclaimed block index
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
		effortMu sync.Mutex
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, &err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var effort dht.Effort
			defer func() {
				effortMu.Lock()
				res.Effort = res.Effort.Plus(effort)
				effortMu.Unlock()
			}()
			for {
				if firstErr.Load() != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				bs := s
				if deterministic {
					f, err := fork(BlockSeed(cfg.Seed, b))
					if err != nil {
						fail(fmt.Errorf("engine: forking sampler for block %d: %w", b, err))
						return
					}
					bs = f
				}
				lo := b * blockSize
				hi := min(lo+blockSize, k)
				for i := lo; i < hi; i++ {
					p, err := bs.Sample()
					if err != nil {
						fail(fmt.Errorf("engine: sample %d: %w", i, err))
						return
					}
					if p.Owner < 0 || p.Owner >= cfg.Owners {
						fail(fmt.Errorf("engine: sampler %s returned owner %d outside [0, %d)", bs.Name(), p.Owner, cfg.Owners))
						return
					}
					atomic.AddInt64(&res.Tally[p.Owner], 1)
					if res.Peers != nil {
						res.Peers[i] = p
					}
				}
				if deterministic {
					// bs is this block's private fork: its counters
					// hold exactly the block's effort.
					if r, ok := bs.(dht.EffortReporter); ok {
						effort = effort.Plus(r.Stats())
					}
				}
			}
		}()
	}
	wg.Wait()
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	return res, nil
}
