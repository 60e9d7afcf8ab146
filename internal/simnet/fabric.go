package simnet

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Fabric is everything a transport is apart from delivery: the handler
// registry (per-node and bulk), the closed flag, the cost meter, the
// fault plan, the trace hook and the Byzantine interceptor. Direct,
// sim.Transport and wire.Transport embed it by value and add only how
// a message travels; each keeps its own Call and its own order of the
// fabric's pieces — Resolve, Faults.Check, Invoke, the meter charge —
// because fault-plan drop streams and virtual-time pins observe that
// order. The zero value is ready to use and must not be copied after
// first use.
type Fabric struct {
	// Faults is the fault-injection plan; nil injects nothing. The
	// transports' WithFaults options set it before the first Call.
	Faults *Faults

	// mu serialises registry changes; each builds the next registry
	// from a copy of the current one and publishes it, so Resolve reads
	// it with one atomic load and no lock.
	mu    sync.Mutex
	reg   atomic.Pointer[registry]
	meter Meter
	trace atomic.Pointer[obs.Trace]
	byz   atomic.Pointer[Interceptor]
}

// registry is who serves which node, immutable once published.
type registry struct {
	handlers map[NodeID]Handler
	multis   []multiReg
	closed   bool
}

// current returns the published registry (empty before the first
// change).
func (f *Fabric) current() registry {
	if r := f.reg.Load(); r != nil {
		return *r
	}
	return registry{}
}

// multiReg is one bulk registration: an ownership predicate plus the
// handler serving every owned node.
type multiReg struct {
	owns func(NodeID) bool
	h    MultiHandler
}

// Dest is a resolved destination: the per-node handler registered for
// it, or the bulk handler whose registrant owns it.
type Dest struct {
	h  Handler
	mh MultiHandler
}

// Register implements Transport.
func (f *Fabric) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: nil handler for node %d", id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.current()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.handlers[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	r.handlers = maps.Clone(r.handlers)
	if r.handlers == nil {
		r.handlers = make(map[NodeID]Handler)
	}
	r.handlers[id] = h
	f.reg.Store(&r)
	return nil
}

// RegisterMulti implements Transport: h serves every node owns reports
// as hosted here, with no per-node table entry. Ownership is consulted
// when a call resolves its destination — on sim.Transport after the
// latency has elapsed — so a node crashed while a message is in flight
// fails the call exactly like a deregistered one.
func (f *Fabric) RegisterMulti(owns func(NodeID) bool, h MultiHandler) error {
	if owns == nil || h == nil {
		return fmt.Errorf("simnet: nil multi registration")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.current()
	if r.closed {
		return ErrClosed
	}
	r.multis = append(slices.Clip(r.multis), multiReg{owns: owns, h: h})
	f.reg.Store(&r)
	return nil
}

// Deregister implements Transport. Bulk registrations are untouched:
// their owns predicate is what takes a node out.
func (f *Fabric) Deregister(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.current()
	if _, ok := r.handlers[id]; ok {
		r.handlers = maps.Clone(r.handlers)
		delete(r.handlers, id)
		f.reg.Store(&r)
	}
}

// DeregisterAll detaches every per-node handler and every bulk
// registration (a daemon re-provisioned with a fresh overlay must not
// keep serving the old one).
func (f *Fabric) DeregisterAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reg.Store(&registry{closed: f.current().closed})
}

// Shut closes the fabric: every registration is dropped, Register and
// RegisterMulti fail with ErrClosed and Resolve reports it. It returns
// false when the fabric was closed already.
func (f *Fabric) Shut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.current().closed {
		return false
	}
	f.reg.Store(&registry{closed: true})
	return true
}

// Meter implements Transport.
func (f *Fabric) Meter() *Meter { return &f.meter }

// SetTrace arms (nil disarms) hop tracing: while armed, every Call
// records one obs.Hop. Disarmed, the hook costs one atomic pointer
// load, keeping the sampling hot path allocation-free.
func (f *Fabric) SetTrace(t *obs.Trace) { f.trace.Store(t) }

// Trace returns the armed trace, nil when disarmed.
func (f *Fabric) Trace() *obs.Trace { return f.trace.Load() }

// SetInterceptor arms (nil disarms) the Byzantine hook: while armed,
// every handler outcome this fabric produces passes through ic before
// metering and delivery. Disarmed, the hook costs one atomic pointer
// load.
func (f *Fabric) SetInterceptor(ic Interceptor) {
	if ic == nil {
		f.byz.Store(nil)
		return
	}
	f.byz.Store(&ic)
}

// Resolve finds who serves node "to": its per-node handler, else the
// first bulk registration that owns it. The error is ErrClosed after
// Shut, ErrUnknownNode when nobody here hosts the node — both bare and
// uncharged: what a miss costs is the transport's business. It takes
// no lock: a call racing a registry change sees the registry before
// or after it, never a mix.
func (f *Fabric) Resolve(to NodeID) (Dest, error) {
	r := f.reg.Load()
	switch {
	case r == nil:
		return Dest{}, ErrUnknownNode
	case r.closed:
		return Dest{}, ErrClosed
	}
	if h, ok := r.handlers[to]; ok {
		return Dest{h: h}, nil
	}
	for i := range r.multis {
		if r.multis[i].owns(to) {
			return Dest{mh: r.multis[i].h}, nil
		}
	}
	return Dest{}, ErrUnknownNode
}

// Invoke runs the resolved handler, then the interceptor when one is
// armed, with no fabric lock held — handlers may call back into the
// transport. What it returns is what the caller sees and what the
// transport's meter charges.
func (f *Fabric) Invoke(dst Dest, from, to NodeID, msg Message) (resp Message, err error) {
	if dst.mh != nil {
		resp, err = dst.mh(to, from, msg)
	} else {
		resp, err = dst.h(from, msg)
	}
	if bz := f.byz.Load(); bz != nil {
		resp, err = (*bz)(from, to, msg, resp, err)
	}
	return resp, err
}
