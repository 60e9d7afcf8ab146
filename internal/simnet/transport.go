package simnet

import (
	"errors"
)

// NodeID identifies a node on the simulated network. Chord uses the
// node's ring point as its NodeID.
type NodeID uint64

// Message is an opaque RPC payload. Transports never inspect it.
type Message any

// Handler processes one RPC at its destination and produces the reply.
// Handlers must not block indefinitely; they may issue further RPCs
// through the transport provided the resulting call graph is acyclic
// (the Chord handlers issue none).
type Handler func(from NodeID, msg Message) (Message, error)

// Transport is a synchronous RPC fabric between simulated nodes.
type Transport interface {
	// Call performs one RPC from node "from" to node "to" and returns the
	// destination handler's reply.
	Call(from, to NodeID, msg Message) (Message, error)
	// Register attaches a node's handler to the network.
	Register(id NodeID, h Handler) error
	// RegisterMulti binds one handler to every node its registrant owns.
	MultiRegistrar
	// Deregister detaches a node. Subsequent calls to it fail with
	// ErrUnknownNode.
	Deregister(id NodeID)
	// Meter exposes the transport's cost counters.
	Meter() *Meter
	// Close releases transport resources. Calls after Close fail with
	// ErrClosed.
	Close() error
}

// MultiHandler processes one RPC on behalf of any node its registrant
// owns: unlike Handler it receives the destination id, so one handler
// (and one registration) can serve an entire overlay. Implementations
// resolve "to" against their own membership; the transport never sees
// a per-node handler table for multi-registered nodes.
type MultiHandler func(to, from NodeID, msg Message) (Message, error)

// MultiRegistrar is the bulk-registration part of Transport: it binds
// a single handler to a dynamic set of nodes at once, and it is how
// overlays register on every transport. owns reports whether the
// registrant currently hosts a live node with the given id; the
// transport consults it where it would consult its per-node handler
// table, so calls to ids the registrant does not own fail with
// ErrUnknownNode exactly as calls to unregistered nodes do. Per-node
// Register/Deregister keeps working alongside (and is checked first).
//
// Bulk registration exists for scale: a 10^7-node overlay would
// otherwise pay a 10^7-entry handler map plus one method-value closure
// per node just to route messages back into a single Network.
type MultiRegistrar interface {
	RegisterMulti(owns func(NodeID) bool, h MultiHandler) error
}

// Transport error conditions.
var (
	ErrUnknownNode = errors.New("simnet: unknown node")
	ErrNodeDead    = errors.New("simnet: node is dead")
	ErrDropped     = errors.New("simnet: message dropped")
	ErrPartitioned = errors.New("simnet: network partitioned")
	ErrClosed      = errors.New("simnet: transport closed")
	ErrDuplicateID = errors.New("simnet: node id already registered")
)

// Interceptor is a Byzantine hook: it observes every RPC after the
// destination handler has produced (resp, err) and may replace either —
// modelling nodes that lie rather than crash. from, to and msg identify
// the call; the returned pair is what the caller sees (and what the
// meter charges). Implementations run on every transport goroutine
// concurrently, so they must be safe for concurrent use, and for
// reproducible simulations they must be stateless: decide from hashes
// of the call's own arguments, never from a shared rng, so the outcome
// is independent of goroutine interleaving.
type Interceptor func(from, to NodeID, msg Message, resp Message, err error) (Message, error)

// Interceptable is implemented by transports whose RPCs a Byzantine
// adversary can intercept: every transport that embeds Fabric — Direct,
// sim.Transport and wire.Transport, which rewrites the outcomes of the
// handlers its own process hosts. SetInterceptor arms (nil disarms) the
// hook; disarmed it costs one atomic pointer load per call, keeping
// the honest hot path allocation-free.
type Interceptable interface {
	SetInterceptor(Interceptor)
}
