package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Test payloads, registered once for the package's tests.
type echoReq struct {
	S string
	N uint64
}

type echoResp struct {
	S string
	N uint64
}

type bigPointResp struct {
	P uint64
}

func init() {
	RegisterValue[echoReq]("wiretest.echoReq")
	RegisterValue[echoResp]("wiretest.echoResp")
	RegisterPointer[bigPointResp]("wiretest.bigPointResp")
}

// startTransport returns a served transport and its address, closed at
// test end.
func startTransport(t testing.TB, opts ...Option) *Transport {
	t.Helper()
	tr := NewTransport(opts...)
	if err := tr.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// echoHandler replies with the request's fields.
func echoHandler(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	m := msg.(echoReq)
	return echoResp{S: m.S, N: m.N}, nil
}

func TestLocalShortCircuit(t *testing.T) {
	t.Parallel()
	tr := NewTransport()
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call(2, 1, echoReq{S: "hi", N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(echoResp); got.S != "hi" || got.N != 7 {
		t.Fatalf("echo = %+v", got)
	}
	if c := tr.Meter().Snapshot(); c.Calls != 1 {
		t.Fatalf("meter calls = %d, want 1", c.Calls)
	}
}

func TestRemoteRoundtrip(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	if err := server.Register(10, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(10, server.Addr())
	// The full uint64 range must round-trip exactly (no float64
	// truncation in the JSON layer).
	const big = ^uint64(0) - 3
	resp, err := client.Call(2, 10, echoReq{S: "over the wire", N: big})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(echoResp); got.S != "over the wire" || got.N != big {
		t.Fatalf("echo = %+v", got)
	}
	if c := client.Meter().Snapshot(); c.Calls != 1 || c.Failures != 0 {
		t.Fatalf("client meter = %+v", c)
	}
	if served := server.ServedCalls(); served != 1 {
		t.Fatalf("server served %d calls, want 1", served)
	}
}

func TestPointerPayloadRoundtrip(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	if err := server.Register(11, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return &bigPointResp{P: msg.(echoReq).N}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(11, server.Addr())
	resp, err := client.Call(1, 11, echoReq{N: 42})
	if err != nil {
		t.Fatal(err)
	}
	ptr, ok := resp.(*bigPointResp)
	if !ok {
		t.Fatalf("reply type %T, want *bigPointResp", resp)
	}
	if ptr.P != 42 {
		t.Fatalf("P = %d", ptr.P)
	}
}

func TestUnknownNode(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	client := startTransport(t)
	// No route at all.
	if _, err := client.Call(1, 99, echoReq{}); !errors.Is(err, simnet.ErrUnknownNode) {
		t.Fatalf("unrouted call error = %v, want ErrUnknownNode", err)
	}
	// Routed, but the remote process does not host the node.
	client.SetRoute(99, server.Addr())
	if _, err := client.Call(1, 99, echoReq{}); !errors.Is(err, simnet.ErrUnknownNode) {
		t.Fatalf("unregistered remote error = %v, want ErrUnknownNode", err)
	}
}

func TestConnectionRefusedMapsToNodeDead(t *testing.T) {
	t.Parallel()
	// Grab a port with no listener behind it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	var slept atomic.Int32
	client := NewTransport(
		WithRetries(2, time.Millisecond, 8*time.Millisecond),
		withSleep(func(time.Duration) { slept.Add(1) }),
	)
	defer client.Close()
	client.SetRoute(5, addr)
	_, err = client.Call(1, 5, echoReq{})
	if !errors.Is(err, simnet.ErrNodeDead) {
		t.Fatalf("refused call error = %v, want ErrNodeDead", err)
	}
	if got := slept.Load(); got != 2 {
		t.Fatalf("slept %d times, want 2 (one per retry)", got)
	}
	if c := client.Meter().Snapshot(); c.Failures != 1 {
		t.Fatalf("meter failures = %d, want 1 per logical call", c.Failures)
	}
}

func TestTimeoutMapsToDropped(t *testing.T) {
	t.Parallel()
	var handled atomic.Int32
	server := startTransport(t)
	if err := server.Register(7, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		handled.Add(1)
		time.Sleep(300 * time.Millisecond)
		return echoResp{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client := NewTransport(
		WithCallTimeout(25*time.Millisecond),
		WithRetries(1, time.Millisecond, time.Millisecond),
		withSleep(func(time.Duration) {}),
	)
	defer client.Close()
	client.SetRoute(7, server.Addr())
	_, err := client.Call(1, 7, echoReq{})
	if !errors.Is(err, simnet.ErrDropped) {
		t.Fatalf("timed-out call error = %v, want ErrDropped", err)
	}
	// Both attempts reached the handler: the timeout fired while the
	// handler held the request, not before delivery.
	deadline := time.Now().Add(2 * time.Second)
	for handled.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2 (initial + 1 retry)", got)
	}
}

func TestMidCallCrashMapsToNodeDead(t *testing.T) {
	t.Parallel()
	// A listener that accepts and slams every connection shut models a
	// daemon crashing mid-call: the client sees EOF/reset after the
	// request is written.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	client := NewTransport(
		WithRetries(2, time.Millisecond, 4*time.Millisecond),
		withSleep(func(time.Duration) {}),
	)
	defer client.Close()
	client.SetRoute(3, lis.Addr().String())
	if _, err := client.Call(1, 3, echoReq{}); !errors.Is(err, simnet.ErrNodeDead) {
		t.Fatalf("mid-call crash error = %v, want ErrNodeDead", err)
	}
}

func TestHandlerErrorsCrossTheWire(t *testing.T) {
	t.Parallel()
	var handled atomic.Int32
	server := startTransport(t)
	if err := server.Register(20, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		handled.Add(1)
		return nil, fmt.Errorf("overlay says: %w", simnet.ErrNodeDead)
	}); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(21, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		handled.Add(1)
		return nil, errors.New("application boom")
	}); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(20, server.Addr())
	client.SetRoute(21, server.Addr())
	if _, err := client.Call(1, 20, echoReq{}); !errors.Is(err, simnet.ErrNodeDead) {
		t.Fatalf("taxonomy error = %v, want ErrNodeDead", err)
	}
	if _, err := client.Call(1, 21, echoReq{}); err == nil || !strings.Contains(err.Error(), "application boom") {
		t.Fatalf("app error = %v, want message preserved", err)
	}
	// Handler-level errors are authoritative: no retry attempts.
	if got := handled.Load(); got != 2 {
		t.Fatalf("handlers ran %d times, want 2 (no retries)", got)
	}
}

func TestLocalFaultInjection(t *testing.T) {
	t.Parallel()
	faults := simnet.NewFaults(nil)
	server := startTransport(t)
	if err := server.Register(30, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t, WithFaults(faults))
	client.SetRoute(30, server.Addr())
	faults.SetDead(30, true)
	if _, err := client.Call(1, 30, echoReq{}); !errors.Is(err, simnet.ErrNodeDead) {
		t.Fatalf("faulted call error = %v, want ErrNodeDead", err)
	}
	if served := server.ServedCalls(); served != 0 {
		t.Fatalf("faulted call reached the server (%d served)", served)
	}
	faults.SetDead(30, false)
	if _, err := client.Call(1, 30, echoReq{}); err != nil {
		t.Fatalf("revived call: %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	t.Parallel()
	tr := startTransport(t)
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(1, 1, echoReq{}); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("call after close = %v, want ErrClosed", err)
	}
	if err := tr.Register(2, echoHandler); !errors.Is(err, simnet.ErrClosed) {
		t.Fatalf("register after close = %v, want ErrClosed", err)
	}
}

// recordBackoffs drives a full retry schedule against a dead port and
// returns the recorded backoff delays.
func recordBackoffs(t *testing.T, seed uint64, retries int) []time.Duration {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	var delays []time.Duration
	client := NewTransport(
		WithRetries(retries, 10*time.Millisecond, 80*time.Millisecond),
		WithJitterSeed(seed),
		withSleep(func(d time.Duration) { delays = append(delays, d) }),
	)
	defer client.Close()
	client.SetRoute(1, addr)
	if _, err := client.Call(0, 1, echoReq{}); !errors.Is(err, simnet.ErrNodeDead) {
		t.Fatalf("call = %v, want ErrNodeDead", err)
	}
	return delays
}

// TestBackoffDeterministicUnderSeededJitter pins the retry schedule:
// equal jitter seeds must produce identical backoff sequences, every
// delay must lie in the jitter window [d/2, d] of its pre-jitter value
// d = min(base<<k, cap), and a different seed must produce a different
// schedule.
func TestBackoffDeterministicUnderSeededJitter(t *testing.T) {
	t.Parallel()
	const retries = 6
	a := recordBackoffs(t, 1234, retries)
	b := recordBackoffs(t, 1234, retries)
	if len(a) != retries {
		t.Fatalf("recorded %d delays, want %d", len(a), retries)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	for i, d := range a {
		pre := base << uint(i)
		if pre > cap || pre <= 0 {
			pre = cap
		}
		if d < pre/2 || d > pre {
			t.Fatalf("retry %d delay %v outside jitter window [%v, %v]", i, d, pre/2, pre)
		}
	}
	c := recordBackoffs(t, 99, retries)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different jitter seeds produced identical schedules")
	}
}

func TestUnregisteredMessageTypeFailsLoudly(t *testing.T) {
	t.Parallel()
	type stranger struct{ X int }
	server := startTransport(t)
	if err := server.Register(40, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(40, server.Addr())
	_, err := client.Call(1, 40, stranger{X: 1})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered payload error = %v", err)
	}
}

func TestDeregisterAllForReprovision(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	if err := server.Register(50, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(50, server.Addr())
	if _, err := client.Call(1, 50, echoReq{}); err != nil {
		t.Fatal(err)
	}
	server.DeregisterAll()
	if _, err := client.Call(1, 50, echoReq{}); !errors.Is(err, simnet.ErrUnknownNode) {
		t.Fatalf("call after DeregisterAll = %v, want ErrUnknownNode", err)
	}
	// Re-registration after a reset must succeed (fresh provision).
	if err := server.Register(50, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(1, 50, echoReq{}); err != nil {
		t.Fatalf("call after re-provision: %v", err)
	}
}
