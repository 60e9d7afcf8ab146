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
// horizon).
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
// confined to one goroutine, draws from its RNG with no locking at all
// and, over a DHT that offers lanes (dht.Laner), keeps the cost of a
// Sample call off the shared meter until the call returns — which is
// what the batch engine hands each block of work.
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
	// lane, when non-nil, stands in for d on an unshared sampler: the
	// same answers, with the cost of one Sample call charged to d's
	// meter in one piece when the call returns.
	lane dht.Lane
	// warmer, when non-nil, is lane as a dht.Warmer: the sampler then
	// draws the starts of its next lookAhead trials at once and warms
	// them, and each trial takes the next one. The last left of ahead
	// are drawn and not yet used; they carry across Sample calls.
	warmer dht.Warmer
	ahead  [lookAhead]ring.Point
	left   int
	// remote, when non-nil, runs a trial's walk where its peers live:
	// at the process hosting its first peer (d's Delegator, resolved at
	// construction), or in the ring of an exclusive fork's lane
	// (dht.RingLane, resolved at fork time). lookup runs a trial's h
	// where its hops' peers live (d's Delegator), and with it the walk,
	// when remote may run it elsewhere.
	remote RemoteWalk
	lookup RemoteLookup

	samples atomic.Int64
	trials  atomic.Int64
	steps   atomic.Int64
	pruned  atomic.Int64
}

// lookAhead is how many trial starts an exclusive fork whose lane warms
// draws at a time. Windows of 16 and 32 sampled as fast, 4 a few
// percent slower.
const lookAhead = 8

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
	return newSampler(d, cfg, rng, params, est), nil
}

func newSampler(d dht.DHT, cfg Config, rng *rand.Rand, params Params, est EstimateResult) *Sampler {
	s := &Sampler{d: d, cfg: cfg, rng: rng, params: params, est: est}
	if dl, ok := d.(Delegator); ok {
		del := dl.Delegate()
		s.lookup = del.H
		if horizon(params.Lambda, params.MaxSteps).Cmp(twoLaps) <= 0 {
			s.remote = del.Walk
		}
	}
	return s
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
	return newSampler(d, cfg, rng, params, EstimateResult{}), nil
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
	rng := rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
	return newSampler(s.d, s.cfg, rng, s.params, s.est), nil
}

// ForkExclusive is Fork for a fork that will be confined to a single
// goroutine: the returned sampler draws the same random stream as
// Fork(seed) — results are bit-identical — but skips the RNG mutex on
// every trial and, when the DHT offers lanes, sums the cost of each
// Sample call privately and charges the shared meter once as the call
// returns, so a meter reading is exact whenever no Sample is in flight.
// When the lane also warms (dht.Warmer), the fork draws the starts of
// its next lookAhead trials in one go and hands them to the lane, which
// resolves their lookups together; the trials then take one start each,
// in the order Fork(seed) draws them, so the samples, the effort and
// the charges stay those of Fork(seed). Starts drawn and not yet used
// wait for the next Sample call and die with the fork. When the lane
// holds its ring (dht.RingLane), every trial's walk runs there, over
// ring indices (Params.WalkRing): the peers, steps, pruning and charges
// of Params.Walk over the lane's Next, without a call a step.
// Sharing an exclusive fork between goroutines is a data race. The
// batch engine prefers this over Fork because each block of work runs
// on exactly one worker.
func (s *Sampler) ForkExclusive(seed uint64) (dht.Sampler, error) {
	f, err := s.Fork(seed)
	if err != nil {
		return nil, err
	}
	fs := f.(*Sampler)
	fs.unshared = true
	if l, ok := s.d.(dht.Laner); ok {
		if lane, ok := l.Lane(); ok {
			fs.lane = lane
			fs.warmer, _ = lane.(dht.Warmer)
			if r, ok := lane.(dht.RingLane); ok {
				fs.remote = ringWalk(r)
			}
		}
	}
	return f, nil
}

// ringWalk runs every trial's walk of an exclusive fork in the ring its
// lane holds, where all its peers live: WalkRing, never sent anywhere.
func ringWalk(r dht.RingLane) RemoteWalk {
	return func(first dht.Peer, d0 uint64, p Params) (WalkResult, bool, error) {
		var tr Trace
		peer, ok, err := p.WalkRing(r, first, d0, &tr)
		return WalkResult{Peer: peer, Accepted: ok, Steps: tr.Steps, Pruned: tr.Pruned > 0}, true, err
	}
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
	if s.lane != nil {
		s.lane.Flush()
	}
	if err == nil {
		s.samples.Add(1)
	}
	s.trials.Add(int64(trace.Trials))
	s.steps.Add(int64(trace.Steps))
	s.pruned.Add(int64(trace.Pruned))
	return p, trace, err
}

// sampleInto is the sampling hot loop behind SampleTraced: it
// accumulates effort into the caller's scratch Trace and keeps the
// per-trial state in locals, so a successful sample allocates nothing.
func (s *Sampler) sampleInto(trace *Trace) (dht.Peer, error) {
	lambda := s.params.Lambda
	d := s.d
	if s.lane != nil {
		d = s.lane
	}
	var next Nexter = d
	for trial := 1; trial <= s.cfg.MaxTrials; trial++ {
		trace.Trials = trial
		var start ring.Point
		switch {
		case s.warmer != nil:
			if s.left == 0 {
				for i := range s.ahead {
					s.ahead[i] = ring.Point(s.rng.Uint64())
				}
				s.warmer.Warm(s.ahead[:])
				s.left = lookAhead
			}
			start = s.ahead[lookAhead-s.left]
			s.left--
		case s.unshared:
			start = ring.Point(s.rng.Uint64())
		default:
			s.mu.Lock()
			start = ring.Point(s.rng.Uint64())
			s.mu.Unlock()
		}
		var first dht.Peer
		var w WalkResult
		var sent bool
		var err error
		if s.lookup != nil {
			// A lookup may run the walk too, where a walk may be sent.
			var p Params
			if s.remote != nil {
				p = s.params
			}
			first, w, sent, err = s.lookup(start, p)
		} else {
			first, err = d.H(start)
		}
		if err != nil && !sent {
			return dht.Peer{}, fmt.Errorf("core: h(%v): %w", start, err)
		}
		d0 := ring.Distance(start, first.Point)
		if d0 < lambda {
			// |I(s, l(h(s)))| is small: h(s) is the chosen peer.
			return first, nil
		}
		if !sent && s.remote != nil {
			w, sent, err = s.remote(first, d0, s.params)
		}
		if sent {
			if err != nil {
				return dht.Peer{}, fmt.Errorf("core: walk from %v: %w", first.Point, err)
			}
			trace.Steps += w.Steps
			if w.Pruned {
				trace.Pruned++
			}
			if w.Accepted {
				return w.Peer, nil
			}
			continue
		}
		p, ok, err := s.params.Walk(next, first, d0, trace)
		if ok || err != nil {
			return p, err
		}
		// Trial failed: the starting point fell in unassigned measure.
	}
	return dht.Peer{}, fmt.Errorf("%w: after %d trials (lambda=%d, maxSteps=%d)",
		ErrTrialsExhausted, s.cfg.MaxTrials, lambda, s.params.MaxSteps)
}

// Walk is Params.Walk with the sampler's parameters: one trial's next
// walk from first, at distance d0 >= lambda from the trial's starting
// point, walked through n.
func (s *Sampler) Walk(n Nexter, first dht.Peer, d0 uint64, trace *Trace) (dht.Peer, bool, error) {
	return s.params.Walk(n, first, d0, trace)
}
