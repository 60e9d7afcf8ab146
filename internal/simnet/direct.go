package simnet

import (
	"fmt"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Direct is a synchronous in-process transport: the Fabric plus inline
// delivery — Call invokes the destination handler in the caller's
// goroutine. It is deterministic, allocation-light and safe for
// concurrent use, which makes it the default backend for experiments.
type Direct struct {
	Fabric
}

var (
	_ Transport     = (*Direct)(nil)
	_ obs.Traceable = (*Direct)(nil)
	_ Interceptable = (*Direct)(nil)
)

// DirectOption configures a Direct transport.
type DirectOption func(*Direct)

// WithFaults attaches a fault-injection plan.
func WithFaults(f *Faults) DirectOption {
	return func(d *Direct) { d.Faults = f }
}

// NewDirect returns a ready-to-use synchronous transport.
func NewDirect(opts ...DirectOption) *Direct {
	d := &Direct{}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Call implements Transport. The handler runs synchronously with no
// transport locks held, so handlers may call back into the transport.
func (d *Direct) Call(from, to NodeID, msg Message) (Message, error) {
	if tr := d.Trace(); tr != nil {
		return d.callTraced(tr, from, to, msg)
	}
	return d.call(from, to, msg)
}

// callTraced wraps call with wall timing and a hop record.
func (d *Direct) callTraced(tr *obs.Trace, from, to NodeID, msg Message) (Message, error) {
	start := time.Now()
	resp, err := d.call(from, to, msg)
	tr.Record(obs.Hop{
		From:      uint64(from),
		To:        uint64(to),
		RPC:       MessageName(msg),
		WallNanos: time.Since(start).Nanoseconds(),
		Outcome:   ErrorClass(err),
	})
	return resp, err
}

// call is resolve → faults → invoke → charge; a closed transport
// answers ErrClosed uncharged.
func (d *Direct) call(from, to NodeID, msg Message) (Message, error) {
	dst, err := d.Resolve(to)
	if err == ErrClosed {
		return nil, err
	}
	if err != nil {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("%w: %d", err, to)
	}
	if err := d.Faults.Check(from, to, msg); err != nil {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	resp, err := d.Invoke(dst, from, to, msg)
	if err != nil {
		d.meter.ChargeFailure()
		return nil, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	d.meter.ChargeSuccess()
	return resp, nil
}

// Close implements Transport.
func (d *Direct) Close() error {
	d.Shut()
	return nil
}
