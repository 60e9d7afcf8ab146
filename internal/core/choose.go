package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Config parameterizes a Sampler. The zero value selects the paper's
// constants.
type Config struct {
	// C1 is the Estimate n tightness constant (default 2).
	C1 float64
	// Gamma1 is the lower approximation constant of the size estimate
	// used to overestimate n as n' = nhat/gamma1 (default 2/7, from
	// Lemma 3).
	Gamma1 float64
	// StepFactor is the per-trial walk bound multiplier (default 6, the
	// paper's "repeat 6 ln n' times").
	StepFactor float64
	// MaxTrials caps the rejection loop (default 4096). The success
	// probability of each trial is n*lambda = n/(7*nhat) >= 1/42 under
	// Lemma 3, so the cap is hit with negligible probability unless the
	// size estimate is grossly wrong.
	MaxTrials int
}

// withDefaults fills zero and negative constants. NaN compares false,
// so it stays NaN for EstimateN and DeriveParams to reject.
func (c Config) withDefaults() Config {
	if c.C1 <= 0 {
		c.C1 = 2
	}
	if c.Gamma1 <= 0 {
		c.Gamma1 = 2.0 / 7.0
	}
	if c.StepFactor <= 0 {
		c.StepFactor = 6
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 4096
	}
	return c
}

// Stats is a snapshot of a Sampler's cumulative effort counters.
type Stats = dht.Effort

// Trace reports the effort of a single Sample call, successful or not.
type Trace struct {
	// Trials is the number of starting points drawn (>= 1).
	Trials int
	// Steps is the number of next steps walked across all trials.
	Steps int
	// Pruned is the number of failed trials cut short of MaxSteps steps
	// because the walk passed the horizon (MaxSteps+1)*lambda from its
	// starting point; the other failed trials walked the full bound.
	Pruned int
}

// Sampler implements Choose Random Peer (Figure 1 of the paper): it
// chooses a peer uniformly at random — each peer with probability
// exactly 1/n w.h.p. over the hash function — from the set of all peers
// of the DHT, using one h lookup per trial and at most MaxSteps next
// steps per trial — in practice far fewer, because a trial is abandoned
// as soon as its walk is provably past every accepting distance (see
// dht.Walk.Horizon).
//
// Concurrency contract: a Sampler is safe for unsynchronized concurrent
// use. The derived parameters are immutable after construction, effort
// counters are atomic, and the only shared mutable state — the RNG — is
// touched under a mutex held just for the one draw per trial, never
// across DHT calls, so concurrent Sample calls overlap their lookups and
// walks freely. Concurrent callers do interleave draws from the one RNG;
// for bit-for-bit reproducible parallel sampling give each goroutine its
// own Fork (or use the batch engine, which forks per block).
//
// A sampler obtained from ForkExclusive trades the contract away: it is
// confined to one goroutine, draws from its RNG with no locking at all,
// and lets its DHT run its trials in ways only one goroutine may (the
// oracle draws its starts ahead and keeps the cost of a Sample call off
// the shared meter until the call returns) — which is what the batch
// engine hands each block of work.
//
// Every trial runs through the sampler's dht.Runner: the one its DHT
// offers (dht.Trials), or dht.NewRunner's H and walk over Next.
type Sampler struct {
	d   dht.DHT
	cfg Config

	params Params
	est    EstimateResult

	mu  sync.Mutex // guards rng only; never held across DHT calls
	rng *rand.Rand
	// unshared marks a ForkExclusive sampler: confined to a single
	// goroutine, so rng is used without taking mu.
	unshared bool
	// run runs the trials, from starts it draws through draw.
	run dht.Runner

	samples atomic.Int64
	trials  atomic.Int64
	steps   atomic.Int64
	pruned  atomic.Int64
}

var (
	_ dht.Sampler        = (*Sampler)(nil)
	_ dht.EffortReporter = (*Sampler)(nil)
)

// New builds a Sampler for the given caller peer: it runs Estimate n
// from the caller (as the paper prescribes — each peer derives its own
// lambda) and derives the sampling parameters.
func New(d dht.DHT, caller dht.Peer, rng *rand.Rand, cfg Config) (*Sampler, error) {
	cfg = cfg.withDefaults()
	est, err := EstimateN(d, caller, cfg.C1)
	if err != nil {
		return nil, fmt.Errorf("core: estimating n: %w", err)
	}
	gamma1 := cfg.Gamma1
	if est.Exact {
		// The estimate is exact, so no overestimation slack is needed.
		gamma1 = 1
	}
	params, err := DeriveParams(est.NHat, gamma1, cfg.StepFactor)
	if err != nil {
		return nil, err
	}
	return newSampler(d, cfg, rng, params, est, false), nil
}

func newSampler(d dht.DHT, cfg Config, rng *rand.Rand, params Params, est EstimateResult, exclusive bool) *Sampler {
	s := &Sampler{d: d, cfg: cfg, rng: rng, params: params, est: est, unshared: exclusive}
	w := dht.Walk{Lambda: params.Lambda, MaxSteps: params.MaxSteps}
	if t, ok := d.(dht.Trials); ok {
		s.run = t.Trials(w, s.draw, exclusive)
	} else {
		s.run = dht.NewRunner(d, w, s.draw)
	}
	return s
}

// draw returns the start of the sampler's next trial: a point drawn
// uniformly from its stream.
func (s *Sampler) draw() ring.Point {
	if s.unshared {
		return ring.Point(s.rng.Uint64())
	}
	s.mu.Lock()
	x := ring.Point(s.rng.Uint64())
	s.mu.Unlock()
	return x
}

// NewWithParams builds a Sampler with explicit parameters, bypassing
// estimation. Experiments use it to isolate the choosing algorithm from
// the estimator and to sweep lambda.
func NewWithParams(d dht.DHT, rng *rand.Rand, params Params, cfg Config) (*Sampler, error) {
	cfg = cfg.withDefaults()
	if params.Lambda == 0 {
		return nil, fmt.Errorf("%w: lambda must be positive", ErrBadEstimate)
	}
	if params.MaxSteps < 1 {
		return nil, fmt.Errorf("core: max steps must be >= 1, got %d", params.MaxSteps)
	}
	return newSampler(d, cfg, rng, params, EstimateResult{}, false), nil
}

// Name implements dht.Sampler.
func (s *Sampler) Name() string { return "king-saia" }

// Fork returns an independent sampler over the same DHT with the same
// configuration and derived parameters (and estimate provenance) but its
// own PCG stream seeded from seed and fresh effort counters. Fork makes
// no DHT calls — the expensive Estimate n run is shared, not repeated —
// so a batch engine can cheaply hand every worker (or every block of
// work) a private sampler and keep parallel results deterministic.
func (s *Sampler) Fork(seed uint64) (dht.Sampler, error) {
	return s.fork(seed, false), nil
}

// ForkExclusive is Fork for a fork that will be confined to a single
// goroutine: the returned sampler draws the same random stream as
// Fork(seed) — results are bit-identical — but skips the RNG mutex on
// every trial, and its DHT may run its trials in ways only one
// goroutine may. Over the oracle the fork draws the starts of several
// trials at once and resolves their lookups together, walks in the
// oracle's ring by index, and charges the shared meter once as each
// Sample call returns, so a meter reading is exact whenever no Sample
// is in flight: the samples, the effort and the charges stay those of
// Fork(seed). Starts drawn and not yet used wait for the next Sample
// call and die with the fork. Sharing an exclusive fork between
// goroutines is a data race. The batch engine prefers this over Fork
// because each block of work runs on exactly one worker.
func (s *Sampler) ForkExclusive(seed uint64) (dht.Sampler, error) {
	return s.fork(seed, true), nil
}

func (s *Sampler) fork(seed uint64, exclusive bool) *Sampler {
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	return newSampler(s.d, s.cfg, rng, s.params, s.est, exclusive)
}

// Params returns the derived sampling parameters.
func (s *Sampler) Params() Params { return s.params }

// Estimate returns the size-estimation run that parameterized the
// sampler (zero-valued if NewWithParams was used).
func (s *Sampler) Estimate() EstimateResult { return s.est }

// Stats returns a snapshot of the cumulative effort counters. Each
// counter is read atomically; a snapshot taken while Sample calls are in
// flight is not an atomic cut across the counters.
func (s *Sampler) Stats() Stats {
	return Stats{
		Samples: s.samples.Load(),
		Trials:  s.trials.Load(),
		Steps:   s.steps.Load(),
		Pruned:  s.pruned.Load(),
	}
}

// Sample implements dht.Sampler.
func (s *Sampler) Sample() (dht.Peer, error) {
	p, _, err := s.SampleTraced()
	return p, err
}

// SampleTraced chooses a random peer and reports the effort expended.
//
// This is Figure 1 of the paper, iterated until a trial succeeds:
//
//  1. s <- random point in (0,1]
//  2. if |I(s, l(h(s)))| is small (< lambda) return h(s)
//  3. else first <- h(s); T <- |I(s, l(first))| - lambda
//     repeat 6 ln n' times:
//     T <- T + |I(l(first), l(next(first)))| - lambda
//     if T <= 0 return next(first) else first <- next(first)
//
// The boundary semantics follow the proof of Theorem 6: intervals are
// half-open (a, b], "small" means strictly shorter than lambda, and the
// walk accepts at the first step where T becomes non-positive. T is
// tracked in exact 128-bit arithmetic; float rounding never decides an
// acceptance.
//
// One deviation from the figure, which changes no outcome: the walk does
// not always "repeat 6 ln n' times". T falls by at most lambda a step,
// so once the walk is more than (MaxSteps+1)*lambda from s no remaining
// step can bring T to zero and the trial is abandoned there — about
// (MaxSteps+1)*n/(7*nhat) steps into a doomed trial in place of
// MaxSteps. The accepted peer, the trial count and the random stream are
// those of the full walk.
func (s *Sampler) SampleTraced() (dht.Peer, Trace, error) {
	var trace Trace
	p, err := s.sampleInto(&trace)
	s.run.Flush()
	if err == nil {
		s.samples.Add(1)
	}
	s.trials.Add(int64(trace.Trials))
	s.steps.Add(int64(trace.Steps))
	s.pruned.Add(int64(trace.Pruned))
	return p, trace, err
}

// sampleInto is the sampling hot loop behind SampleTraced: it runs
// trials until one accepts, fails or the cap is reached, and
// accumulates their effort into the caller's scratch Trace, so a
// successful sample allocates nothing.
func (s *Sampler) sampleInto(trace *Trace) (dht.Peer, error) {
	for trial := 1; trial <= s.cfg.MaxTrials; trial++ {
		t := s.run.Trial()
		trace.Trials = trial
		trace.Steps += t.Steps
		if t.Pruned {
			trace.Pruned++
		}
		switch {
		case t.Err != nil:
			return dht.Peer{}, fmt.Errorf("core: %w", t.Err)
		case t.Accepted:
			return t.Peer, nil
		}
		// Trial failed: the starting point fell in unassigned measure.
	}
	return dht.Peer{}, fmt.Errorf("%w: after %d trials (lambda=%d, maxSteps=%d)",
		ErrTrialsExhausted, s.cfg.MaxTrials, s.params.Lambda, s.params.MaxSteps)
}
