package overlay

import (
	"fmt"
	"sync"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// The ring half every overlay shares. The paper's next(p) is one
// pointer chase, the same in every DHT, so its messages, its client
// calls and the ring check live here once. Each overlay answers the
// requests from its own arrays in its own handler and supplies the
// Pointers hook VerifyRing reads; its lookup (h) stays its own.
// Handlers hold no lock across a call, and only two requests are
// served with calls of their own: a delegated walk (walk.go), which
// the core answers before any overlay handler sees it and whose steps
// may leave the process, and chord's route tail, which calls only
// nodes its process hosts.

// SuccessorReq asks a node for its ring successor pointer.
type SuccessorReq struct{}

// PredecessorReq asks a node for its ring predecessor pointer, if known.
type PredecessorReq struct{}

// PingReq checks liveness.
type PingReq struct{}

// Ack acknowledges a ping and any overlay request with nothing to
// return.
type Ack struct{}

// PointResp answers SuccessorReq and PredecessorReq: an optional node
// identifier. It travels as a pooled pointer: the successor chase
// issues one per walk step of every sample, so boxing a fresh value
// each time was a per-step allocation. The caller copies the fields out
// and the reply returns to the pool.
type PointResp struct {
	P   ring.Point
	Has bool
}

var pointRespPool = sync.Pool{New: func() any { return new(PointResp) }}

// NewPointResp returns a filled reply from the pool.
func NewPointResp(p ring.Point, has bool) *PointResp {
	r := pointRespPool.Get().(*PointResp)
	r.P, r.Has = p, has
	return r
}

func init() {
	wire.RegisterValue[SuccessorReq]("overlay.SuccessorReq")
	wire.RegisterValue[PredecessorReq]("overlay.PredecessorReq")
	wire.RegisterValue[PingReq]("overlay.PingReq")
	wire.RegisterValue[Ack]("overlay.Ack")
	wire.RegisterPointer[PointResp]("overlay.PointResp")
}

// IsPointerRPC reports whether msg is a ring-pointer query: the
// successor/predecessor reads behind next(p), owner verification and
// ring repair.
func IsPointerRPC(msg simnet.Message) bool {
	switch msg.(type) {
	case SuccessorReq, PredecessorReq:
		return true
	}
	return false
}

// pointer asks node "of" for one ring pointer and recycles the reply.
func (c *Core) pointer(from, of ring.Point, req simnet.Message) (ring.Point, bool, error) {
	raw, err := c.Call(from, of, req)
	if err != nil {
		return 0, false, err
	}
	r := raw.(*PointResp)
	p, has := r.P, r.Has
	pointRespPool.Put(r)
	return p, has, nil
}

// Successor asks node "of" for its ring successor (one RPC): the
// paper's next(p).
func (c *Core) Successor(from, of ring.Point) (ring.Point, error) {
	p, _, err := c.pointer(from, of, SuccessorReq{})
	if err != nil {
		return 0, fmt.Errorf("overlay: successor of %v: %w", of, err)
	}
	return p, nil
}

// Predecessor asks node "of" for its ring predecessor (one RPC); has is
// false when the node knows none.
func (c *Core) Predecessor(from, of ring.Point) (p ring.Point, has bool, err error) {
	p, has, err = c.pointer(from, of, PredecessorReq{})
	if err != nil {
		return 0, false, fmt.Errorf("overlay: predecessor of %v: %w", of, err)
	}
	return p, has, nil
}

// Ping checks that node "to" answers (one RPC).
func (c *Core) Ping(from, to ring.Point) error {
	_, err := c.Call(from, to, PingReq{})
	return err
}

// VerifyRing checks global ring consistency through the Pointers hook:
// every live node's successor must be the next member in sorted order
// and, on rings of two or more, its predecessor the previous one. It
// returns nil when the ring is perfect — the post-churn recovery check.
func (c *Core) VerifyRing() error {
	members := c.Members()
	if len(members) == 0 {
		return ErrEmptyNetwork
	}
	for i, id := range members {
		s, ok := c.LiveSlot(id)
		if !ok {
			return fmt.Errorf("%w: %v", ErrNodeNotFound, id)
		}
		succ, pred, hasPred := c.hooks.Pointers(s)
		if want := members[(i+1)%len(members)]; succ != want {
			return fmt.Errorf("overlay: node %v successor = %v, want %v", id, succ, want)
		}
		if len(members) == 1 {
			continue
		}
		want := members[(i-1+len(members))%len(members)]
		if !hasPred {
			return fmt.Errorf("overlay: node %v has no predecessor", id)
		}
		if pred != want {
			return fmt.Errorf("overlay: node %v predecessor = %v, want %v", id, pred, want)
		}
	}
	return nil
}
