package simnet

import (
	"errors"
	"reflect"
)

// ErrorClass classifies an RPC outcome into the transport error
// taxonomy: "ok" for success, "unknown" / "dead" / "dropped" /
// "partitioned" / "closed" for the transport errors, and "app" for errors the
// destination handler returned. The strings are stable: the wire codec
// carries them in error envelopes and the obs layer uses them as
// metric label values and trace hop outcomes.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrUnknownNode):
		return "unknown"
	case errors.Is(err, ErrNodeDead):
		return "dead"
	case errors.Is(err, ErrDropped):
		return "dropped"
	case errors.Is(err, ErrPartitioned):
		return "partitioned"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "app"
	}
}

// ClassError is ErrorClass inverted: the taxonomy error a class names,
// or nil for "ok", "app" and anything else outside the taxonomy. The
// wire codec and chord's route tails carry a failure as its class and
// map it back with this.
func ClassError(class string) error {
	switch class {
	case "unknown":
		return ErrUnknownNode
	case "dead":
		return ErrNodeDead
	case "dropped":
		return ErrDropped
	case "partitioned":
		return ErrPartitioned
	case "closed":
		return ErrClosed
	default:
		return nil
	}
}

// MessageName names an RPC payload type for trace records (e.g.
// "chord.nextHopReq"). It reflects on the payload, so transports call
// it only on traced paths.
func MessageName(msg Message) string {
	if msg == nil {
		return "<nil>"
	}
	t := reflect.TypeOf(msg)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}
