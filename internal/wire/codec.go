// Package wire is the real-network transport of the repo: a
// simnet.Transport carried as length-prefixed frames over persistent
// TCP connections on loopback or LAN sockets, each opened by one HTTP
// upgrade. It is the step from simulator to system — the same Chord and
// Kademlia overlays that run over simnet.Direct and the virtual-clock
// transport run unmodified across process boundaries, with per-call
// deadlines, bounded retries with jittered backoff, pooled connections,
// and network failures mapped into the simnet error taxonomy
// (timeouts surface as ErrDropped, unreachable nodes as ErrNodeDead).
//
// Messages cross the wire through a small self-describing codec:
// each RPC payload type is registered once under a stable name
// (RegisterValue / RegisterPointer in the package that owns the type)
// and travels as JSON inside a frame. Registration preserves the exact
// in-process shape — handlers that type-switch on value types and
// callers that assert pooled pointer replies both see the same
// concrete types they see over the in-process transports.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// codecEntry decodes one registered payload type.
type codecEntry struct {
	name   string
	decode func(data []byte) (simnet.Message, error)
}

var (
	codecMu     sync.RWMutex
	codecByName = make(map[string]codecEntry)
	codecByType = make(map[reflect.Type]string)
)

// RegisterValue registers a payload type that travels as a value: the
// decoder hands handlers a T, matching type switches on the value.
// The name must be globally unique and stable across builds (convention:
// "<package>.<type>"). Registration panics on conflicts, which makes
// double registration a startup failure instead of silent corruption.
func RegisterValue[T any](name string) {
	register(name, reflect.TypeOf((*T)(nil)).Elem(), func(data []byte) (simnet.Message, error) {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	})
}

// RegisterPointer registers a payload type that travels as *T: the
// decoder allocates a fresh T and hands callers the pointer, matching
// the pooled-reply convention of the overlay RPC layers (the receiving
// side recycles it into its local pool).
func RegisterPointer[T any](name string) {
	register(name, reflect.TypeOf((*T)(nil)), func(data []byte) (simnet.Message, error) {
		v := new(T)
		if err := json.Unmarshal(data, v); err != nil {
			return nil, err
		}
		return v, nil
	})
}

func register(name string, t reflect.Type, decode func([]byte) (simnet.Message, error)) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if prev, ok := codecByName[name]; ok {
		panic(fmt.Sprintf("wire: message name %q already registered (%v)", name, prev))
	}
	if prev, ok := codecByType[t]; ok {
		panic(fmt.Sprintf("wire: message type %v already registered as %q", t, prev))
	}
	codecByName[name] = codecEntry{name: name, decode: decode}
	codecByType[t] = name
}

// encodeMessage serializes a registered payload into its wire name and
// JSON body. Unregistered types fail loudly: they would be a new RPC
// added without wiring it for the network transport.
func encodeMessage(msg simnet.Message) (name string, body []byte, err error) {
	t := reflect.TypeOf(msg)
	codecMu.RLock()
	name, ok := codecByType[t]
	codecMu.RUnlock()
	if !ok {
		return "", nil, fmt.Errorf("wire: message type %T not registered", msg)
	}
	body, err = json.Marshal(msg)
	if err != nil {
		return "", nil, fmt.Errorf("wire: encoding %T: %w", msg, err)
	}
	return name, body, nil
}

// decodeMessage reconstructs a payload from its wire name and JSON body.
func decodeMessage(name string, body []byte) (simnet.Message, error) {
	codecMu.RLock()
	entry, ok := codecByName[name]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown message name %q", name)
	}
	msg, err := entry.decode(body)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding %q: %w", name, err)
	}
	return msg, nil
}

// After the upgrade handshake a connection carries only frames, one
// request answered by one reply, in order: a big-endian u32 length, then
// that many bytes laid out as
//
//	u8 flags | u64 from | u64 to | u64 trace | u16 len(name) | name | body
//
// A request names its payload type and carries the payload's JSON as
// body; trace, when nonzero, is the obs trace id of the lookup this RPC
// belongs to: the serving process records the hop it observes under it,
// so /v1/trace?id=N can assemble a cluster-wide hop record. A reply is a
// payload the same way or, with flagErr set, an error kind as name and
// its message as body.
type frame struct {
	isErr           bool
	from, to, trace uint64
	name            string
	body            []byte
}

const (
	flagErr     = 1
	frameHeader = 1 + 8 + 8 + 8 + 2
	maxFrame    = 1 << 20 // a reader rejects a longer length prefix before allocating for it
)

// errFrame builds the error reply for a taxonomy kind and message.
func errFrame(kind, msg string) frame {
	return frame{isErr: true, name: kind, body: []byte(msg)}
}

// tooLarge reports a frame no reader would accept. Senders check before
// encoding, where the offending payload is known.
func (f *frame) tooLarge() error {
	if n := frameHeader + len(f.name) + len(f.body); n > maxFrame {
		return fmt.Errorf("wire: %q frame of %d bytes exceeds the %d-byte limit", f.name, n, maxFrame)
	}
	return nil
}

// appendFrame appends f's encoding, length prefix included.
func appendFrame(b []byte, f *frame) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(frameHeader+len(f.name)+len(f.body)))
	var flags byte
	if f.isErr {
		flags = flagErr
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, f.from)
	b = binary.BigEndian.AppendUint64(b, f.to)
	b = binary.BigEndian.AppendUint64(b, f.trace)
	b = binary.BigEndian.AppendUint16(b, uint16(len(f.name)))
	b = append(b, f.name...)
	return append(b, f.body...)
}

// readFrame reads one frame into *buf (grown as needed and reused by
// the next read); the returned body aliases it.
func readFrame(r *bufio.Reader, buf *[]byte) (frame, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < frameHeader || n > maxFrame {
		return frame{}, fmt.Errorf("wire: frame length %d outside [%d, %d]", n, frameHeader, maxFrame)
	}
	_, _ = r.Discard(4) // cannot fail: Peek has just buffered these bytes
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return frame{}, err
	}
	nameEnd := frameHeader + int(binary.BigEndian.Uint16(b[25:]))
	if nameEnd > n {
		return frame{}, fmt.Errorf("wire: frame name overruns its %d-byte frame", n)
	}
	return frame{
		isErr: b[0]&flagErr != 0,
		from:  binary.BigEndian.Uint64(b[1:]),
		to:    binary.BigEndian.Uint64(b[9:]),
		trace: binary.BigEndian.Uint64(b[17:]),
		name:  string(b[frameHeader:nameEnd]),
		body:  b[nameEnd:],
	}, nil
}

// Error kinds on the wire, mapped 1:1 onto the simnet taxonomy — the
// same strings simnet.ErrorClass produces and the obs layer uses as
// label values. "app" covers handler-level errors outside the taxonomy,
// which surface verbatim in the message.
const (
	kindUnknownNode = "unknown"
	kindNodeDead    = "dead"
	kindDropped     = "dropped"
	kindPartitioned = "partitioned"
	kindClosed      = "closed"
	kindApp         = "app"
)
