package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	randompeer "github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// overlayView is what both overlay adapters expose: the paper's DHT
// model seen from one caller.
type overlayView interface {
	dht.DHT
	Self() dht.Peer
}

// buildOverlay builds a static overlay of the named backend over tr
// and returns its view from the first point plus the churn driver's
// handle on the same network.
func buildOverlay(backend string, tr simnet.Transport, points []ring.Point) (overlayView, churn.Overlay, error) {
	switch backend {
	case "chord":
		net, err := chord.BuildStatic(chord.Config{}, tr, points)
		if err != nil {
			return nil, nil, err
		}
		view, err := net.AsDHT(points[0])
		return view, churn.Chord(net), err
	case "kademlia":
		net, err := kademlia.BuildStatic(kademlia.Config{}, tr, points)
		if err != nil {
			return nil, nil, err
		}
		view, err := net.AsDHT(points[0])
		return view, churn.Kademlia(net), err
	}
	return nil, nil, fmt.Errorf("bench: unknown backend %q", backend)
}

func pcg(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, splitmix64(seed))) }

// netSeed places the peers of every workload's network. The network is
// part of the workload, like a dataset: the caller's size estimate, and
// with it the cost of every sample, swings by a factor of two between
// placements, so a placement that moved with -seed would bury any
// change under the difference between rings. -seed drives the
// operation stream instead: the sampler's random points, the batch
// seeds, the request seeds.
const netSeed = 1

// ledger fills the per-layer metrics every traced sampling pass shares
// from the tracer's aggregates: overlay names the adapter and handler
// layer ("chord", "kademlia"; "" when the DHT has none), transport the
// call layer ("simnet", "sim"; "" likewise). hops is the number of
// transport calls made under dht.H, n the network size.
func (t *tracer) ledger(v values, overlay, transport string, hops float64, n int) {
	samples := float64(t.agg[opSample].count)
	hCalls, nextCalls := float64(t.agg[opH].count), float64(t.agg[opNext].count)
	sampleTotal := float64(t.agg[opSample].total)
	v["core.trials_per_sample"] = hCalls / samples // one h lookup per trial
	v["core.next_steps_per_sample"] = nextCalls / samples
	v["core.accept_ratio"] = samples / hCalls
	_, coreSelf := t.perCall(opSample)
	v["core.self_us_per_sample"] = coreSelf / 1e3
	hTotal, hSelf := t.perCall(opH)
	nextTotal, nextSelf := t.perCall(opNext)
	v["dht.h_calls_per_sample"] = hCalls / samples
	v["dht.next_calls_per_sample"] = nextCalls / samples
	v["dht.h_us"] = hTotal / 1e3
	v["dht.next_us"] = nextTotal / 1e3
	v["dht.h_share"] = float64(t.agg[opH].total) / sampleTotal
	v["dht.next_share"] = float64(t.agg[opNext].total) / sampleTotal
	v["dht.hops_per_lookup"] = hops / hCalls
	v["dht.hops_over_log2n"] = hops / hCalls / math.Log2(float64(n))
	if overlay != "" {
		v[overlay+".self_us_per_h"] = hSelf / 1e3
		v[overlay+".self_ns_per_next"] = nextSelf
		v[overlay+".handler_ns_per_call"], _ = t.perCall(opHandler)
	}
	if transport != "" {
		_, v[transport+".self_ns_per_call"] = t.perCall(opCall)
	}
}

// traceOverhead sets the tracing-cost metrics: traced against untraced
// time per sample on the same prefix of the op stream, and the share of
// the traced wall the span self times account for.
func traceOverhead(v values, t *tracer, tracedWall time.Duration, untracedNsPerSample float64) {
	tracedNs := float64(tracedWall) / float64(t.samples)
	v["trace.overhead_pct"] = 100 * (tracedNs - untracedNsPerSample) / untracedNsPerSample
	v["trace.self_sum_share"] = float64(t.selfSum()) / float64(tracedWall)
}

// ---- oracle-batch-1m ------------------------------------------------

const (
	oracleN = 1_000_000
	// batchChunk is the sample count of one SampleN call. A call
	// allocates and merges one n-entry tally per worker, so chunks are
	// large enough (about two seconds) that this stays near 1% of a call.
	batchChunk = 1 << 16
)

type oracleBed struct {
	tb *randompeer.Testbed
	s  randompeer.Sampler
}

func buildOracle(seed uint64) (oracleBed, error) {
	tb, err := randompeer.New(randompeer.WithPeers(oracleN), randompeer.WithSeed(netSeed))
	if err != nil {
		return oracleBed{}, err
	}
	s, err := tb.UniformSampler(seed + 1)
	return oracleBed{tb, s}, err
}

// batches calls SampleN chunk after chunk until the budget is spent,
// summing the tally and the transport cost; wall covers the calls only.
func (b oracleBed) batches(o *outcome, e env, bud budget, tally []int64, opts ...randompeer.BatchOption) (samples int64, cost randompeer.Cost, wall time.Duration, err error) {
	for i := 0; bud.more(int(samples), time.Now()); i++ {
		k := batchChunk
		if bud.ops > 0 {
			k = min(k, bud.ops-int(samples))
		}
		res, err := b.tb.SampleN(context.Background(), b.s, k,
			append([]randompeer.BatchOption{randompeer.WithTallyOnly(), randompeer.WithBatchSeed(subSeed(e.seed, i))}, opts...)...)
		if err != nil {
			return 0, cost, 0, err
		}
		wall += res.Elapsed
		cost.Calls += res.Cost.Calls
		cost.Messages += res.Cost.Messages
		var sum int64
		for owner, c := range res.Tally {
			sum += c
			tally[owner] += c
		}
		if sum != int64(k) {
			o.violatef("batch %d: tally sums to %d, want %d", i, sum, k)
		}
		if !res.Deterministic {
			o.violatef("batch %d: not deterministic", i)
		}
		samples += int64(k)
	}
	return samples, cost, wall, nil
}

func runOracleBatch(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	bed, setup, err := medianSetup(e, func() (oracleBed, error) { return buildOracle(e.seed) }, nil)
	if err != nil {
		return nil, err
	}
	warm := make([]int64, oracleN)
	if _, _, _, err := bed.batches(o, e, budget{ops: batchChunk / 16}, warm); err != nil {
		return nil, err
	}
	tally := make([]int64, oracleN)
	samples, cost, wall, err := bed.batches(o, e, e.budget(1), tally)
	if err != nil {
		return nil, err
	}
	checkUniform(o, tally)
	o.attempted = samples
	o.vals["setup_s"] = setup
	o.vals["samples_per_s"] = float64(samples) / wall.Seconds()
	amortisedLatency(o, wall, samples)
	o.vals["ok_share"] = 1
	o.vals["peak_rss_mb"] = peakRSSMB()
	o.notef("n=%d samples=%d chunk=%d default workers=%d msgs_per_sample=%v", oracleN, samples, batchChunk,
		runtime.GOMAXPROCS(0), float64(cost.Messages)/float64(samples))
	return o, nil
}

func traceOracleBatch(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	v := o.vals
	bed, err := buildOracle(e.seed)
	if err != nil {
		return nil, err
	}
	// The workload as users run it, then the same at one worker: the
	// engine's own figures, untraced.
	tally := make([]int64, oracleN)
	before := snapProc()
	samples, cost, wall, err := bed.batches(o, e, e.budget(0.3), tally)
	if err != nil {
		return nil, err
	}
	after := snapProc()
	procMetrics(v, before, after, samples)
	v["engine.allocs_per_sample"] = v["proc.allocs_per_sample"]
	v["msgs_per_sample"] = float64(cost.Messages) / float64(samples)
	checkUniform(o, tally)
	// The same seeds redraw the same samples, so this pass gets a tally
	// of its own.
	tally1 := make([]int64, oracleN)
	samples1, _, wall1, err := bed.batches(o, e, e.budget(0.3), tally1, randompeer.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	rate1 := float64(samples1) / wall1.Seconds()
	v["engine.samples_per_s_w1"] = rate1
	v["engine.speedup_wN"] = float64(samples) / wall.Seconds() / rate1

	// Side probe: the ring search under every oracle lookup.
	oracle := bed.tb.DHT().(*dht.Oracle)
	r := oracle.Ring()
	rng := pcg(e.seed + 2)
	const probes = 1 << 20
	sink := 0
	start := time.Now()
	for i := 0; i < probes; i++ {
		sink += r.Successor(ring.Point(rng.Uint64()))
	}
	v["ring.successor_ns"] = float64(time.Since(start)) / probes
	runtime.KeepAlive(sink)

	// Traced pass: the first tenth of the op stream at one worker,
	// once plain and once through the decorators.
	prefix := max(1, int(samples)/10)
	plain, err := bed.tb.SampleN(context.Background(), bed.s, prefix,
		randompeer.WithTallyOnly(), randompeer.WithBatchSeed(subSeed(e.seed, 0)), randompeer.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	t := newTracer()
	self, err := bed.tb.Peer(0)
	if err != nil {
		return nil, err
	}
	inner, err := core.New(tracedDHT{oracle, t}, self, pcg(e.seed+1), core.Config{})
	if err != nil {
		return nil, err
	}
	t.on = true
	traced, err := bed.tb.SampleN(context.Background(), tracedSampler{inner, t}, prefix,
		randompeer.WithTallyOnly(), randompeer.WithBatchSeed(subSeed(e.seed, 0)), randompeer.WithWorkers(1))
	t.on = false
	if err != nil {
		return nil, err
	}
	for owner := range plain.Tally {
		if plain.Tally[owner] != traced.Tally[owner] {
			o.violatef("traced pass drew a different tally than the plain pass at owner %d", owner)
			break
		}
	}
	// The oracle models its hops instead of making them: a lookup is
	// charged ceil(log2 n) calls and a next step one.
	hops := float64(traced.Cost.Calls - t.agg[opNext].count)
	t.ledger(v, "", "", hops, oracleN)
	traceOverhead(v, t, traced.Elapsed, float64(plain.Elapsed)/float64(prefix))
	o.attempted = samples + samples1 + 2*int64(prefix)
	return o, t.write(o, e.root, "oracle-batch-1m", [numOps]string{"core", "dht", "dht"})
}

// ---- chord-direct-16k, kademlia-direct-16k ----------------------------

const directN = 16384

// direct is a closed loop of one goroutine calling Sample() over a
// static overlay on the in-process Direct transport.
type direct struct{ backend string }

func (d direct) name() string { return d.backend + "-direct-16k" }

// staticBed is a static overlay with a King-Saia sampler on top.
type staticBed struct {
	r     *ring.Ring
	view  overlayView
	s     dht.Sampler
	build time.Duration // the overlay build alone
}

// buildStatic makes the ring of n points, the backend's overlay over a
// fresh transport, and a sampler drawing from seed. With a tracer, the
// transport, the DHT and the sampler are each wrapped in their timing
// decorator.
func buildStatic(backend string, n int, seed uint64, newTransport func() simnet.Transport, t *tracer) (staticBed, error) {
	r, err := ring.Generate(pcg(netSeed), n)
	if err != nil {
		return staticBed{}, err
	}
	tr := newTransport()
	if t != nil {
		tr = tracedTransport{tr, t}
	}
	start := time.Now()
	view, _, err := buildOverlay(backend, tr, r.Points())
	if err != nil {
		return staticBed{}, err
	}
	built := time.Since(start)
	var over dht.DHT = view
	if t != nil {
		over = tracedDHT{view, t}
	}
	var s dht.Sampler
	s, err = core.New(over, view.Self(), pcg(seed+1), core.Config{})
	if err != nil {
		return staticBed{}, err
	}
	if t != nil {
		s = tracedSampler{s, t}
	}
	return staticBed{r, view, s, built}, nil
}

func newDirect() simnet.Transport { return simnet.NewDirect() }

// loop samples in a closed loop, checking every returned peer against
// the built ring, and returns the peers' owners and latencies.
func (b staticBed) loop(o *outcome, bud budget) (owners []int, lat []float64, wall time.Duration, err error) {
	lat, wall, err = closedLoop(bud, func(i int) error {
		p, err := b.s.Sample()
		if err != nil {
			return err
		}
		if p.Owner < 0 || p.Owner >= b.r.Len() || b.r.At(p.Owner) != p.Point {
			o.violatef("sample %d returned %v, which is not a member of the built ring", i, p)
		}
		owners = append(owners, p.Owner)
		return nil
	})
	return owners, lat, wall, err
}

func tallyOf(owners []int, n int) []int64 {
	tally := make([]int64, n)
	for _, owner := range owners {
		if owner >= 0 && owner < n {
			tally[owner]++
		}
	}
	return tally
}

func (d direct) run(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	bed, setup, err := medianSetup(e, func() (staticBed, error) { return buildStatic(d.backend, directN, e.seed, newDirect, nil) }, nil)
	if err != nil {
		return nil, err
	}
	if _, _, _, err := bed.loop(o, e.budget(0.01)); err != nil {
		return nil, err
	}
	meter := bed.view.Meter()
	before := meter.Snapshot()
	owners, lat, wall, err := bed.loop(o, e.budget(1))
	if err != nil {
		return nil, err
	}
	cost := meter.Snapshot().Sub(before)
	checkUniform(o, tallyOf(owners, directN))
	samples := int64(len(owners))
	o.attempted = samples
	o.failed = cost.Failures
	o.vals["setup_s"] = setup
	o.vals["samples_per_s"] = float64(samples) / wall.Seconds()
	latencyMetrics(o, lat)
	o.vals["ok_share"] = 1
	o.vals["peak_rss_mb"] = peakRSSMB()
	o.notef("n=%d samples=%d closed loop, 1 goroutine, msgs_per_sample=%v", directN, samples, float64(cost.Messages)/float64(samples))
	return o, nil
}

func (d direct) trace(e env) (*outcome, error) {
	o := &outcome{vals: values{}}
	v := o.vals
	// Build once with the heap measured around it: bytes per node and
	// build rate are the overlay's set-up figures.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	bed, err := buildStatic(d.backend, directN, e.seed, newDirect, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	v[d.backend+".bytes_per_node"] = float64(m1.HeapAlloc-m0.HeapAlloc) / directN
	v[d.backend+".build_peers_per_s"] = directN / bed.build.Seconds()

	meter := bed.view.Meter()
	cost0 := meter.Snapshot()
	before := snapProc()
	owners, lat, _, err := bed.loop(o, e.budget(0.6))
	if err != nil {
		return nil, err
	}
	after := snapProc()
	cost := meter.Snapshot().Sub(cost0)
	samples := int64(len(owners))
	procMetrics(v, before, after, samples)
	checkUniform(o, tallyOf(owners, directN))
	v["msgs_per_sample"] = float64(cost.Messages) / float64(samples)
	v["simnet.calls_per_sample"] = float64(cost.Calls) / float64(samples)
	v["simnet.failures"] = float64(cost.Failures)

	prefix := max(1, len(owners)/10)
	var plainNs float64
	for _, us := range lat[:prefix] {
		plainNs += us * 1e3
	}
	err = tracePrefix(o, e, d.name(), d.backend, "simnet", directN, newDirect, owners[:prefix], time.Duration(plainNs))
	o.attempted = samples + int64(prefix)
	o.failed = cost.Failures
	return o, err
}

// tracePrefix is the traced pass of an overlay workload: an identical
// overlay built behind the decorators replays the samples the plain
// pass drew first (owners, in plainWall) and must draw the same peers;
// the ledger and the span file come out of it.
func tracePrefix(o *outcome, e env, workload, backend, transport string, n int, newTransport func() simnet.Transport, owners []int, plainWall time.Duration) error {
	t := newTracer()
	bed, err := buildStatic(backend, n, e.seed, newTransport, t)
	if err != nil {
		return err
	}
	t.on = true
	traced, _, wall, err := bed.loop(o, budget{ops: len(owners)})
	t.on = false
	if err != nil {
		return err
	}
	if !slices.Equal(traced, owners) {
		o.violatef("the traced pass drew other peers than the plain pass")
	}
	t.ledger(o.vals, backend, transport, float64(t.callsIn[opH]), n)
	traceOverhead(o.vals, t, wall, float64(plainWall)/float64(len(owners)))
	return t.write(o, e.root, workload, [numOps]string{"core", backend, backend, transport, backend})
}
