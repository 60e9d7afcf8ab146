package sim

import (
	"fmt"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Transport is the simnet.Fabric plus virtual-clock delivery: every
// Call pays a latency drawn from its Model before the destination
// handler runs, and the round trip is recorded in the meter's latency
// histogram next to the usual call/message counters.
//
// Bound to a Kernel, a Call made inside a kernel process sleeps on the
// event queue, so other processes (churn events, maintenance sweeps,
// other samplers) interleave with it in virtual time — and a node
// crashed while the message is in flight makes the call fail, exactly
// as it would on a real network. Without a kernel (or outside any
// process) the transport free-runs: each Call advances the clock in the
// caller's goroutine, which keeps sequential workloads deterministic
// and costs a few nanoseconds over the Direct transport.
//
// Handlers execute in the calling goroutine with no transport locks
// held, exactly like simnet.Direct.
type Transport struct {
	simnet.Fabric
	model  Model
	stream *Stream
	kernel *Kernel

	// constRTT short-circuits constant models on the hot path: no
	// uniform draw, no interface call. Zero means "not constant".
	constRTT time.Duration
}

var (
	_ simnet.Transport     = (*Transport)(nil)
	_ obs.Traceable        = (*Transport)(nil)
	_ simnet.Interceptable = (*Transport)(nil)
)

// TransportOption configures a Transport.
type TransportOption func(*Transport)

// WithModel sets the latency model (default Constant{1ms}).
func WithModel(m Model) TransportOption {
	return func(t *Transport) {
		if m != nil {
			t.model = m
		}
	}
}

// WithStreamSeed roots the latency draw stream (default 1).
func WithStreamSeed(seed uint64) TransportOption {
	return func(t *Transport) { t.stream = NewStream(seed) }
}

// WithKernel binds the transport to a kernel: calls from kernel
// processes sleep on the event queue and the kernel's clock is the
// transport's clock.
func WithKernel(k *Kernel) TransportOption {
	return func(t *Transport) { t.kernel = k }
}

// WithFaults attaches a fault-injection plan (shared with the simnet
// transports). Combine with Kernel.At to script time-based faults:
// schedule a process that flips SetDead, SetDropRate or Partition/Heal
// at chosen virtual times. Slow hosts are a latency model (Straggler).
func WithFaults(f *simnet.Faults) TransportOption {
	return func(t *Transport) { t.Faults = f }
}

// NewTransport returns a ready-to-use virtual-clock transport.
func NewTransport(opts ...TransportOption) *Transport {
	t := &Transport{
		model:  Constant{RTT: time.Millisecond},
		stream: NewStream(1),
	}
	for _, opt := range opts {
		opt(t)
	}
	if c, ok := t.model.(Constant); ok {
		t.constRTT = c.RTT
		// Arm the meter's constant-latency fast lane: successful calls
		// under a constant model charge call count and latency record in
		// one atomic add (see Meter.ChargeConstSuccess).
		t.Meter().ArmConstLatency(c.RTT)
	}
	return t
}

// Now returns the current virtual time: the kernel clock when bound,
// otherwise the sum of every recorded RPC latency — free-running calls
// execute back to back, so total latency IS elapsed sequential time,
// and the hot path saves a separate clock update per call.
func (t *Transport) Now() time.Duration {
	if t.kernel != nil {
		return t.kernel.Now()
	}
	return time.Duration(t.Meter().LatencySumNanos())
}

// Call implements simnet.Transport. The destination is resolved only
// after the latency has elapsed, so a node deregistered (crashed) while
// the message is in flight fails the call — asynchronous churn is
// visible to in-flight RPCs.
func (t *Transport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	if tr := t.Trace(); tr != nil {
		return t.callTraced(tr, from, to, msg)
	}
	return t.call(from, to, msg)
}

// callTraced wraps call with virtual and wall timing plus a hop record.
// Virtual deltas are per-call accurate for sequential lookups; under a
// kernel with concurrent processes the clock advances for everyone, so
// arm traces (SetTrace) on quiesced lookups.
func (t *Transport) callTraced(tr *obs.Trace, from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	startWall := time.Now()
	startVirt := t.Now()
	resp, err := t.call(from, to, msg)
	tr.Record(obs.Hop{
		From:         uint64(from),
		To:           uint64(to),
		RPC:          simnet.MessageName(msg),
		VirtualNanos: int64(t.Now() - startVirt),
		WallNanos:    time.Since(startWall).Nanoseconds(),
		Outcome:      simnet.ErrorClass(err),
	})
	return resp, err
}

// call is delay → faults → resolve → invoke → charge. The message has
// travelled by the time anything can fail, so every failure — a closed
// transport included — charges the meter and records the latency.
func (t *Transport) call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	lat := t.constRTT
	konst := lat != 0
	if !konst {
		lat = max(t.model.Latency(from, to, t.stream.U01()), 0)
	}
	if k := t.kernel; k != nil {
		if err := k.Sleep(lat); err != nil {
			// Kernel draining: surface the transport-closed condition
			// the protocols already unwind on.
			return t.fail(from, to, lat, simnet.ErrClosed)
		}
	}
	if err := t.Faults.Check(from, to, msg); err != nil {
		return t.fail(from, to, lat, err)
	}
	dst, err := t.Resolve(to)
	if err == simnet.ErrClosed {
		return t.fail(from, to, lat, err)
	}
	if err != nil {
		t.Meter().ChargeFailure()
		t.Meter().RecordLatency(lat)
		return nil, fmt.Errorf("%w: %d", err, to)
	}
	resp, err := t.Invoke(dst, from, to, msg)
	if err != nil {
		return t.fail(from, to, lat, err)
	}
	if konst {
		// Constant model: one atomic add covers the call count and the
		// latency record — the same meter traffic Direct pays.
		t.Meter().ChargeConstSuccess()
	} else {
		t.Meter().ChargeSuccess()
		t.Meter().RecordLatency(lat)
	}
	return resp, nil
}

// fail charges and wraps one failed RPC (a method, not a closure, to
// keep the hot path allocation-free).
func (t *Transport) fail(from, to simnet.NodeID, lat time.Duration, err error) (simnet.Message, error) {
	t.Meter().ChargeFailure()
	t.Meter().RecordLatency(lat)
	return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
}

// Close implements simnet.Transport.
func (t *Transport) Close() error {
	t.Shut()
	return nil
}
