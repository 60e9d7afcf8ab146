// Package simnet provides the simulated message-passing network beneath
// the Chord DHT: synchronous RPC transports with exact message and hop
// accounting, plus fault injection (dead nodes, message drops).
//
// The paper's cost model measures two quantities per operation: latency
// (the number of sequential RPC round trips, since every protocol here
// issues its RPCs one after another) and messages (each RPC is one
// request plus one reply). Meter counts both. Transports that model
// virtual time (internal/sim) additionally record each RPC's simulated
// round-trip duration into the meter's latency histogram, so hop counts
// and wall-clock-style latencies live side by side on one meter.
package simnet

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// meterShards is the number of independently updated counter shards in a
// Meter. It must be a power of two (shard selection masks a random
// word). Every charge picks one at random, so 16 shards cut the chance
// that two charges in flight meet on one cache line to 1/16; they do not
// keep any writer off any line (see Meter).
const meterShards = 16

// meterShard is one stripe of counters, padded out to two cache lines so
// that writers on different shards never share a line (adjacent shards
// on one line would put back the collisions the striping spreads out).
//
// Messages are not stored directly: every completed RPC is exactly one
// request plus one reply (2 messages per call) and every failed RPC
// costs one request, so messages = 2*calls + failures + extraMsg, with
// extraMsg absorbing the rare synthetic Charge whose message count
// deviates from the 2-per-call baseline. Deriving the count at snapshot
// time halves the atomic traffic of the hot charges, which profiling
// showed was a double-digit share of per-sample cost.
type meterShard struct {
	calls    atomic.Int64 // completed RPC round trips (latency proxy)
	extraMsg atomic.Int64 // messages beyond the 2-per-call baseline
	failures atomic.Int64 // RPCs that failed (dropped or dead destination)
	constOK  atomic.Int64 // successes in the constant-latency fast lane
	_        [128 - 4*8]byte
}

// Meter accumulates transport costs. Besides the striped counters it
// carries an optional constant-latency fast lane (ArmConstLatency): a
// time-simulating transport whose every successful RPC would record the
// same round-trip duration charges call count and latency with the one
// atomic add of ChargeConstSuccess — the same per-RPC atomic traffic as
// a transport with no latency accounting at all — and Snapshot, Latency
// and LatencySumNanos fold the lane back into the derived totals.
//
// It is the cost sink of the whole testbed: every h lookup, successor
// chase and simulated RPC charges it, so under a concurrent sampling
// engine it is written from many goroutines at once. Counters are
// striped across meterShards cache-line-padded shards updated with
// atomics, and a charge picks its shard with a cheap per-thread random
// draw. That spreads contention; it does not remove it. Every goroutine
// writes every shard in turn, so with two or more writers each line's
// last writer is usually another core and the atomic add has to fetch
// it: measured on two cores, two batch workers charging about 92 times
// a sample ran at 0.8 to 0.98 times the rate of one (BENCH_12 to 17),
// where two goroutines that share nothing run at 1.9 times. Nothing
// portable pins a goroutine to a shard — a stack-address hash put both
// workers on one line in some layouts, a sync.Pool-pinned shard cost
// every single-goroutine charge 10-15 ns — so the meter stays as it is
// and hot callers stay off it: a caller confined to one goroutine that
// charges many times per operation (the batch engine's per-block forks)
// must sum its cost privately and charge once per operation, which is
// what the oracle's trial runner (dht.Trials) does. Callers that charge once or a few times per
// lock-taking RPC (the transports) charge directly.
//
// Concurrency contract: all methods are safe for unsynchronized
// concurrent use. Snapshot and Reset sum (respectively zero) the shards
// one atomic word at a time, so a snapshot taken while charges are in
// flight is a linearizable per-counter reading but not an atomic cut
// across counters — exactly the guarantee the previous single-counter
// implementation gave. Measure the cost of a quiesced operation by
// snapshotting before and after it, as all experiments do.
//
// The zero value is ready to use.
type Meter struct {
	shards [meterShards]meterShard
	// constNanos is the armed constant-latency lane's round-trip time
	// (0 = lane unarmed). Written once by ArmConstLatency before the
	// transport goes hot; read by the snapshot methods.
	constNanos atomic.Int64
	// lat holds the recorded round-trip durations. Latencies are
	// recorded only by time-simulating transports (single-threaded
	// under the event kernel) and the wire transport, so plain atomics
	// without striping are contention-appropriate here.
	lat obs.Histogram
}

// Cost is an immutable snapshot of a Meter.
type Cost struct {
	Calls    int64
	Messages int64
	Failures int64
}

// shard picks a stripe at random. math/rand/v2's global functions draw
// from a lock-free per-thread generator, so the pick costs a few
// nanoseconds and never serializes callers — but it is a fresh pick per
// charge, not a home per goroutine: concurrent writers collide on a line
// with probability 1/meterShards per charge and, worse, keep taking each
// other's lines over. See Meter for who must not charge per call.
func (m *Meter) shard() *meterShard {
	return &m.shards[rand.Uint32()&(meterShards-1)]
}

// Snapshot returns the current counter values.
func (m *Meter) Snapshot() Cost {
	var c Cost
	var extra int64
	for i := range m.shards {
		s := &m.shards[i]
		c.Calls += s.calls.Load() + s.constOK.Load()
		extra += s.extraMsg.Load()
		c.Failures += s.failures.Load()
	}
	c.Messages = 2*c.Calls + c.Failures + extra
	return c
}

// constLaneCount sums the constant-latency lane's success counter.
func (m *Meter) constLaneCount() int64 {
	var n int64
	for i := range m.shards {
		n += m.shards[i].constOK.Load()
	}
	return n
}

// ArmConstLatency arms the constant-latency fast lane: every subsequent
// ChargeConstSuccess records one completed RPC of round-trip duration d
// with a single atomic add. Arm it once, before the meter goes hot;
// both lanes may be used side by side (a transport falls back to
// ChargeSuccess+RecordLatency whenever a call's latency deviates from
// the constant — shaped links, non-constant models, failures).
func (m *Meter) ArmConstLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.constNanos.Store(int64(d))
}

// ChargeConstSuccess records one completed RPC whose round trip took
// exactly the armed constant latency: one round trip, two messages, one
// latency record — all in a single atomic add, derived at snapshot
// time.
func (m *Meter) ChargeConstSuccess() {
	m.shard().constOK.Add(1)
}

// Charge records an arbitrary cost. It is used by synthetic backends
// (such as the oracle DHT) that model rather than execute RPCs. The
// common shape — messages exactly twice calls, the request+reply cost
// every synthetic backend charges — costs a single atomic add.
func (m *Meter) Charge(calls, messages int64) {
	s := m.shard()
	s.calls.Add(calls)
	if extra := messages - 2*calls; extra != 0 {
		s.extraMsg.Add(extra)
	}
}

// ChargeSuccess records one completed RPC: one round trip, two messages.
// It is called by every transport implementation (including ones outside
// this package, such as the virtual-clock transport in internal/sim).
func (m *Meter) ChargeSuccess() {
	m.shard().calls.Add(1)
}

// ChargeFailure records a failed RPC attempt. The request message still
// crossed the network (or was lost in it), so it is counted (at snapshot
// time: each failure contributes one message).
func (m *Meter) ChargeFailure() {
	m.shard().failures.Add(1)
}

// Reset zeroes all counters, including the latency histogram.
func (m *Meter) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		s.calls.Store(0)
		s.extraMsg.Store(0)
		s.failures.Store(0)
		s.constOK.Store(0)
	}
	m.lat.Reset()
}

// RecordLatency records one RPC round trip of duration d into the
// latency histogram: two atomic adds, no allocation. Negative durations
// are clamped to zero. Safe for concurrent use.
func (m *Meter) RecordLatency(d time.Duration) { m.lat.Observe(d) }

// LatencySumNanos returns the total recorded latency without
// snapshotting the buckets — the read behind free-running virtual
// clocks (internal/sim derives "now" from it: with one record per RPC,
// total recorded latency is exactly the sequential virtual time). It
// includes the constant-latency fast lane (count x armed constant).
func (m *Meter) LatencySumNanos() int64 {
	sum := m.lat.Sum()
	if c := m.constNanos.Load(); c > 0 {
		sum += c * m.constLaneCount()
	}
	return sum
}

// Latency returns the current latency histogram, with the
// constant-latency fast lane folded in as that many records of exactly
// the armed constant. Like Snapshot, a reading taken while records are
// in flight is linearizable per counter but not an atomic cut across
// them; measure quiesced operations with a before/after pair.
func (m *Meter) Latency() obs.HistSnapshot {
	return m.lat.Snapshot().AddN(time.Duration(m.constNanos.Load()), m.constLaneCount())
}

// Sub returns the component-wise difference c - prev, used to measure the
// cost of a single operation between two snapshots.
func (c Cost) Sub(prev Cost) Cost {
	return Cost{
		Calls:    c.Calls - prev.Calls,
		Messages: c.Messages - prev.Messages,
		Failures: c.Failures - prev.Failures,
	}
}
