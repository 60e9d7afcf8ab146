package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Model is a per-link latency model: it maps one RPC to its virtual
// round-trip duration. u is the call's single uniform draw in [0, 1) —
// models must be pure functions of (from, to, u), consuming no other
// randomness, so that a transport's latency multiset is a deterministic
// function of its seed regardless of call interleaving.
type Model interface {
	Latency(from, to simnet.NodeID, u float64) time.Duration
	// Name returns the model's flag spec, parseable by ParseModel.
	Name() string
}

// Constant is a fixed round-trip time for every link: the model E25 uses
// to turn hop counts into latencies one-for-one.
type Constant struct {
	RTT time.Duration
}

// Latency implements Model.
func (c Constant) Latency(_, _ simnet.NodeID, _ float64) time.Duration { return c.RTT }

// Name implements Model.
func (c Constant) Name() string { return "constant:" + c.RTT.String() }

// Uniform draws each round trip uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Latency implements Model.
func (m Uniform) Latency(_, _ simnet.NodeID, u float64) time.Duration {
	return m.Min + time.Duration(u*float64(m.Max-m.Min))
}

// Name implements Model.
func (m Uniform) Name() string { return "uniform:" + m.Min.String() + "-" + m.Max.String() }

// LogNormal draws each round trip from a log-normal distribution with
// the given median and log-scale sigma — the standard heavy-tailed model
// of wide-area link latency.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Latency implements Model. The standard-normal quantile is obtained
// from the inverse error function: z = sqrt(2) * erfinv(2u - 1).
func (m LogNormal) Latency(_, _ simnet.NodeID, u float64) time.Duration {
	z := math.Sqrt2 * math.Erfinv(2*u-1)
	return toDuration(float64(m.Median) * math.Exp(m.Sigma*z))
}

// Name implements Model.
func (m LogNormal) Name() string {
	return "lognormal:" + m.Median.String() + "," + strconv.FormatFloat(m.Sigma, 'g', -1, 64)
}

// Straggler wraps a base model with per-node slowdown: a deterministic
// pseudo-random Fraction of all node ids are stragglers, and every RPC
// touching a straggler endpoint is multiplied by Factor. It models the
// heterogeneous-host regime (overloaded peers, slow uplinks) without any
// per-node configuration.
type Straggler struct {
	Base     Model
	Fraction float64 // fraction of node ids that straggle, in [0, 1]
	Factor   float64 // latency multiplier per straggler endpoint
	Seed     uint64  // decides which ids straggle; same seed, same set
}

// IsStraggler reports whether id is one of the slow nodes.
func (s Straggler) IsStraggler(id simnet.NodeID) bool {
	if s.Fraction >= 1 {
		return true
	}
	if s.Fraction <= 0 {
		return false
	}
	return float64(splitmix64(s.Seed^uint64(id)))/(1<<64) < s.Fraction
}

// Latency implements Model.
func (s Straggler) Latency(from, to simnet.NodeID, u float64) time.Duration {
	d := s.Base.Latency(from, to, u)
	if s.IsStraggler(from) {
		d = toDuration(float64(d) * s.Factor)
	}
	if s.IsStraggler(to) {
		d = toDuration(float64(d) * s.Factor)
	}
	return d
}

// Name implements Model. The canonical form carries the seed, so the
// spec identifies the exact straggler set, not just its size.
func (s Straggler) Name() string {
	return fmt.Sprintf("straggler:%g,%g,%d,%s", s.Fraction, s.Factor, s.Seed, s.Base.Name())
}

// DefaultStragglerSeed is the straggler-set seed used when a flag spec
// omits one.
const DefaultStragglerSeed = 0x57a6

// ParseModel parses a latency-model flag spec:
//
//	constant:<rtt>                      e.g. constant:1ms
//	uniform:<min>-<max>                 e.g. uniform:500us-5ms
//	lognormal:<median>,<sigma>          e.g. lognormal:2ms,0.6
//	straggler:<frac>,<factor>,<base>    e.g. straggler:0.1,8,constant:1ms
//	straggler:<frac>,<factor>,<seed>,<base>   (explicit straggler set)
//
// Model.Name emits the canonical form of each spec and parses back to
// an identical model, so table cells and -latency flag values share one
// vocabulary.
func ParseModel(spec string) (Model, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "constant":
		rtt, err := time.ParseDuration(rest)
		if err != nil {
			return nil, fmt.Errorf("sim: constant model %q: %w", spec, err)
		}
		if rtt < 0 {
			return nil, fmt.Errorf("sim: constant model %q: negative round trip", spec)
		}
		return Constant{RTT: rtt}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, fmt.Errorf("sim: uniform model %q: want uniform:<min>-<max>", spec)
		}
		minD, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("sim: uniform model %q: %w", spec, err)
		}
		maxD, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("sim: uniform model %q: %w", spec, err)
		}
		if minD < 0 {
			return nil, fmt.Errorf("sim: uniform model %q: negative min", spec)
		}
		if maxD < minD {
			return nil, fmt.Errorf("sim: uniform model %q: max below min", spec)
		}
		return Uniform{Min: minD, Max: maxD}, nil
	case "lognormal":
		med, sig, ok := strings.Cut(rest, ",")
		if !ok {
			return nil, fmt.Errorf("sim: lognormal model %q: want lognormal:<median>,<sigma>", spec)
		}
		median, err := time.ParseDuration(med)
		if err != nil {
			return nil, fmt.Errorf("sim: lognormal model %q: %w", spec, err)
		}
		if median <= 0 {
			return nil, fmt.Errorf("sim: lognormal model %q: median must be positive", spec)
		}
		sigma, ok := parseFinite(sig)
		if !ok || sigma < 0 {
			return nil, fmt.Errorf("sim: lognormal model %q: bad sigma %q", spec, sig)
		}
		return LogNormal{Median: median, Sigma: sigma}, nil
	case "straggler":
		parts := strings.SplitN(rest, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("sim: straggler model %q: want straggler:<frac>,<factor>[,<seed>],<base>", spec)
		}
		frac, ok := parseFinite(parts[0])
		if !ok || frac < 0 || frac > 1 {
			return nil, fmt.Errorf("sim: straggler model %q: bad fraction %q", spec, parts[0])
		}
		factor, ok := parseFinite(parts[1])
		if !ok || factor < 0 {
			return nil, fmt.Errorf("sim: straggler model %q: bad factor %q", spec, parts[1])
		}
		// Optional explicit seed before the base spec. Unambiguous: a
		// bare integer is never a model spec (those are kind:args).
		seed := uint64(DefaultStragglerSeed)
		baseSpec := parts[2]
		if head, tail, ok := strings.Cut(baseSpec, ","); ok {
			if s, err := strconv.ParseUint(head, 10, 64); err == nil {
				seed = s
				baseSpec = tail
			}
		}
		base, err := ParseModel(baseSpec)
		if err != nil {
			return nil, err
		}
		return Straggler{Base: base, Fraction: frac, Factor: factor, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("sim: unknown latency model %q (want constant:, uniform:, lognormal: or straggler:)", spec)
	}
}

// parseFinite parses a model parameter, rejecting the NaN and ±Inf that
// strconv.ParseFloat accepts (a NaN passes every range check).
func parseFinite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// toDuration converts nanoseconds to a Duration, saturating where a
// plain conversion is platform-defined: a valid spec with a large sigma
// or straggler factor can draw beyond the int64 range, and a zero sigma
// at u = 0 multiplies zero by -Inf (a NaN reads as zero).
func toDuration(ns float64) time.Duration {
	switch {
	case !(ns > 0):
		return 0
	case ns >= math.MaxInt64:
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// Stream is a lock-free deterministic uniform stream: draw i is a pure
// function of (seed, i), so the multiset of the first N draws is
// identical regardless of which goroutine takes which draw — the
// property that keeps latency histograms reproducible even in
// free-running concurrent use. Under the kernel (one process at a time)
// the full sequence is deterministic.
type Stream struct {
	seed uint64
	seq  atomic.Uint64
}

// NewStream returns a stream rooted at seed.
func NewStream(seed uint64) *Stream { return &Stream{seed: seed} }

// U01 returns the next uniform draw in [0, 1).
func (s *Stream) U01() float64 {
	i := s.seq.Add(1)
	return float64(splitmix64(s.seed+i*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used
// for per-draw and per-node pseudo-randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
