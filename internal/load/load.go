// Package load is the open-loop workload driver: it runs a population
// of virtual clients as discrete-event kernel processes, issuing
// sample/lookup requests at heavy-tailed arrival rates, concurrent in
// virtual time with churn and stragglers, and records every request
// into obs instruments that the windowed Recorder (recorder.go) turns
// into per-window time series for the SLO engine (internal/slo).
//
// The generator is open-loop: arrival times are drawn up front from
// the interarrival distribution and each request runs as its own
// kernel process, independent of whether earlier requests have
// completed. A closed-loop driver (issue, wait, issue) would let a
// slow server throttle its own offered load, hiding queueing delay
// exactly when it matters; open-loop keeps the offered rate fixed so
// latency windows show the backlog building instead of the arrival
// rate quietly collapsing. The queue depth itself is visible as the
// load_inflight gauge.
//
// Determinism: request i's private RNG and client identity derive
// purely from (Seed, i) via splitmix64 — no RNG is shared across
// request processes — and interarrival gaps are drawn by the single
// generator process from its own seeded stream. The kernel serializes
// all user code, so a run's per-request outcomes, instrument readings
// and recorder windows are a pure function of (Config, kernel seed),
// bit-identical at any GOMAXPROCS (asserted by the determinism tests).
package load

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// Request is one arrival handed to the workload's Do function.
type Request struct {
	// Index is the arrival's sequence number (0-based).
	Index uint64
	// Rand is the request-private generator, derived from (Seed, Index).
	Rand *rand.Rand
	run  *Run
}

// Client returns the issuing virtual client, drawn from the Zipf
// popularity distribution over [0, Clients) and derived from (Seed,
// Index). The first call in a run builds the run's Zipf table; a Do
// that never asks builds none.
func (req Request) Client() uint64 { return req.run.client(req.Index) }

// Config parameterizes one open-loop run.
type Config struct {
	// Clients is the virtual client population size. Client identity
	// per request is drawn Zipf(ZipfS) over this population, so a few
	// clients are hot and most are cold — the usual production shape.
	Clients int
	// Requests is the total number of arrivals to generate.
	Requests int
	// MeanGap is the mean interarrival gap; the offered rate is
	// 1/MeanGap regardless of how the system keeps up.
	MeanGap time.Duration
	// GapSigma is the sigma of the lognormal interarrival distribution
	// (the gap mean stays MeanGap for any sigma). Zero draws constant
	// gaps. It must be finite.
	GapSigma float64
	// ZipfS is the Zipf exponent of client popularity; values <= 0
	// draw clients uniformly. It must be finite.
	ZipfS float64
	// Seed derives every random choice in the run.
	Seed uint64
	// Op labels this workload's metric series (default "sample").
	Op string
	// Registry receives the driver's instruments. Required.
	Registry *obs.Registry
	// Do issues one request on the calling kernel process (it may
	// Sleep and issue latency-paying transport calls). It returns the
	// owner index that served the request — fed into the per-owner
	// load tally for the vnode comparison — or a negative owner to
	// skip the tally, and an error for a failed request. Required.
	Do func(req Request) (owner int, err error)
	// Owners sizes the per-owner load tally (0 disables it).
	Owners int
	// OnDone, when set, runs on the kernel once the final request has
	// completed — the hook that stops self-perpetuating companions (a
	// Recorder's ticker, a probe) so the kernel can drain. It runs on
	// the last request's process and may therefore Sleep.
	OnDone func()
}

// Run is one in-flight or completed workload run.
type Run struct {
	cfg       cfgInternal
	k         *sim.Kernel
	doFn      func(uint64) // cached method value for alloc-free GoArg spawns
	gaps      *rand.Rand
	zipfOnce  sync.Once
	zcum      []float64 // cumulative Zipf weights over clients, built by the first Client call
	loads     []int64   // requests served per owner
	remaining int       // requests not yet completed (kernel-serialized)

	ok       *obs.Counter
	failed   *obs.Counter
	inflight *obs.Gauge
	latency  *obs.Histogram
}

// cfgInternal is Config after defaulting — kept separate so a Run
// cannot observe a half-defaulted Config.
type cfgInternal struct {
	Config
}

// Start validates cfg, registers the driver's instruments and spawns
// the generator process on k. The run completes when the kernel drains;
// read results from the Run afterwards.
//
// Instruments (op label from cfg.Op):
//
//	load_requests_total{op}              completed requests
//	load_request_failures_total{op}      failed requests
//	load_inflight                        arrivals minus completions (open-loop backlog)
//	load_request_latency_nanoseconds{op} completion time minus arrival time, virtual
func Start(k *sim.Kernel, cfg Config) (*Run, error) {
	if cfg.Registry == nil {
		return nil, errors.New("load: Config.Registry is required")
	}
	if cfg.Do == nil {
		return nil, errors.New("load: Config.Do is required")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("load: Config.Requests must be positive")
	}
	if math.IsNaN(cfg.GapSigma) || math.IsInf(cfg.GapSigma, 0) || math.IsNaN(cfg.ZipfS) || math.IsInf(cfg.ZipfS, 0) {
		return nil, errors.New("load: Config.GapSigma and Config.ZipfS must be finite")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.MeanGap <= 0 {
		return nil, errors.New("load: Config.MeanGap must be positive")
	}
	if cfg.Op == "" {
		cfg.Op = "sample"
	}
	op := obs.Label{Name: "op", Value: cfg.Op}
	r := &Run{
		cfg:      cfgInternal{cfg},
		k:        k,
		gaps:     rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		ok:       cfg.Registry.Counter("load_requests_total", "completed workload requests", op),
		failed:   cfg.Registry.Counter("load_request_failures_total", "failed workload requests", op),
		inflight: cfg.Registry.Gauge("load_inflight", "open-loop arrivals minus completions"),
		latency:  cfg.Registry.Histogram("load_request_latency_nanoseconds", "virtual request latency, arrival to completion", op),
	}
	r.remaining = cfg.Requests
	if cfg.Owners > 0 {
		r.loads = make([]int64, cfg.Owners)
	}
	r.doFn = r.request
	k.Go("loadgen", r.generate)
	return r, nil
}

// generate is the single arrival process: sleep one heavy-tailed gap,
// spawn one independent request process, repeat. Requests outlive the
// generator — the open loop.
func (r *Run) generate() {
	for i := 0; i < r.cfg.Requests; i++ {
		if r.k.Sleep(r.gap()) != nil {
			return
		}
		r.inflight.Add(1)
		r.k.GoArg("loadreq", r.doFn, uint64(i))
	}
}

// gap draws one interarrival gap: lognormal with mean MeanGap (the
// -sigma^2/2 shift keeps the mean fixed as sigma grows the tail), or
// exactly MeanGap when GapSigma is zero.
func (r *Run) gap() time.Duration {
	s := r.cfg.GapSigma
	if s <= 0 {
		return r.cfg.MeanGap
	}
	g := float64(r.cfg.MeanGap) * math.Exp(s*r.gaps.NormFloat64()-s*s/2)
	if g < 1 {
		g = 1
	}
	return time.Duration(g)
}

// request is one client's request process: issue, time, account.
func (r *Run) request(i uint64) {
	req := Request{
		Index: i,
		Rand:  rand.New(rand.NewPCG(splitmix64(r.cfg.Seed+1, i), splitmix64(r.cfg.Seed+2, i))),
		run:   r,
	}
	start := r.k.Now()
	owner, err := r.cfg.Do(req)
	r.latency.Observe(r.k.Now() - start)
	r.inflight.Add(-1)
	if err != nil {
		r.failed.Inc()
	} else {
		r.ok.Inc()
		if owner >= 0 && owner < len(r.loads) {
			r.loads[owner]++
		}
	}
	r.remaining--
	if r.remaining == 0 && r.cfg.OnDone != nil {
		r.cfg.OnDone()
	}
}

// client draws request i's client id: Zipf-weighted inverse-CDF lookup
// on a (Seed, i)-derived uniform, so the draw needs no shared RNG.
// The table is built once per run, on the first Zipf draw.
func (r *Run) client(i uint64) uint64 {
	u := splitmix64(r.cfg.Seed+3, i)
	if r.cfg.ZipfS <= 0 || r.cfg.Clients == 1 {
		return u % uint64(r.cfg.Clients)
	}
	r.zipfOnce.Do(func() { r.zcum = zipfCumulative(r.cfg.Clients, r.cfg.ZipfS) })
	return uint64(sort.SearchFloat64s(r.zcum, float64(u>>11)/(1<<53)))
}

// OwnerLoads returns the per-owner completed-request tally (nil when
// Config.Owners was zero). Valid once the kernel has drained; the
// returned slice is the run's own and must not be mutated.
func (r *Run) OwnerLoads() []int64 { return r.loads }

// Completed returns the number of successful requests so far.
func (r *Run) Completed() int64 { return r.ok.Value() }

// Failed returns the number of failed requests so far.
func (r *Run) Failed() int64 { return r.failed.Value() }

// zipfCumulative precomputes the normalized cumulative weights of
// Zipf(s) over [0, n): weight(rank) = 1/(rank+1)^s. math/rand/v2 has
// no Zipf generator, and an explicit CDF + binary search keeps the
// per-request draw a pure function of its uniform, which the
// determinism contract needs anyway.
func zipfCumulative(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// splitmix64 hashes (seed, i) to one well-mixed word — the standard
// splitmix64 finalizer, the same construction the engine uses for
// per-block stream seeds.
func splitmix64(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
