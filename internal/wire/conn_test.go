package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/raceflag"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// idleTo reports how many idle connections tr pools to addr.
func idleTo(tr *Transport, addr string) int {
	tr.cmu.Lock()
	defer tr.cmu.Unlock()
	return len(tr.idle[addr])
}

// noSleep skips retry backoff so failure-path tests run at wire speed.
var noSleep = withSleep(func(time.Duration) {})

// rawUpgrade dials addr and performs the upgrade handshake by hand,
// returning the connection and the reader holding anything buffered.
func rawUpgrade(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", RPCPath, addr, upgradeProto)
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("reading upgrade response: %v", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != upgradeProto {
		t.Fatalf("upgrade answered %s (Upgrade: %q)", resp.Status, resp.Header.Get("Upgrade"))
	}
	return nc, br
}

func TestFrameRoundtrip(t *testing.T) {
	t.Parallel()
	frames := []frame{
		{from: 1, to: ^uint64(0), trace: 7, name: "wiretest.echoReq", body: []byte(`{"S":"x"}`)},
		{isErr: true, name: kindNodeDead, body: []byte("gone")},
		{name: "", body: nil},
	}
	var stream []byte
	for i := range frames {
		stream = appendFrame(stream, &frames[i])
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range frames {
		got, err := readFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.isErr != want.isErr || got.from != want.from || got.to != want.to ||
			got.trace != want.trace || got.name != want.name || !bytes.Equal(got.body, want.body) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := readFrame(r, &buf); err != io.EOF {
		t.Fatalf("read past the last frame = %v, want io.EOF", err)
	}
}

// TestOversizePrefix pins the untrusted-length rule on both levels: the
// reader refuses a length past maxFrame before allocating for it, and a
// server that meets one hangs up while other connections keep working.
func TestOversizePrefix(t *testing.T) {
	t.Parallel()
	for _, n := range []uint32{maxFrame + 1, ^uint32(0), frameHeader - 1, 0} {
		var buf []byte
		hdr := binary.BigEndian.AppendUint32(nil, n)
		_, err := readFrame(bufio.NewReader(bytes.NewReader(append(hdr, make([]byte, 64)...))), &buf)
		if err == nil || buf != nil {
			t.Fatalf("length %d: err = %v, buffer grown to %d; want an error and no allocation", n, err, cap(buf))
		}
	}
	big := frame{name: "wiretest.echoReq", body: make([]byte, maxFrame)}
	if big.tooLarge() == nil {
		t.Fatal("a frame past maxFrame passed the sender-side check")
	}

	server := startTransport(t)
	if err := server.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(1, server.Addr())
	if _, err := client.Call(2, 1, echoReq{S: "before"}); err != nil {
		t.Fatal(err)
	}
	nc, br := rawUpgrade(t, server.Addr())
	defer nc.Close()
	if _, err := nc.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, br); err != nil || n != 0 {
		t.Fatalf("after an oversize prefix the server sent %d bytes, err %v; want a bare hang-up", n, err)
	}
	if _, err := client.Call(2, 1, echoReq{S: "after"}); err != nil {
		t.Fatalf("pooled connection after another one's oversize frame: %v", err)
	}
	if d := client.stats.dials.Load(); d != 1 {
		t.Fatalf("client dialed %d times, want 1 (its connection was not the offender)", d)
	}
}

func TestOversizePayloadFailsTheCallNotTheConnection(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	if err := server.Register(1, func(_ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return echoResp{S: strings.Repeat("y", int(msg.(echoReq).N))}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t, noSleep)
	client.SetRoute(1, server.Addr())
	// Too large to send: refused before any network attempt.
	_, err := client.Call(2, 1, echoReq{S: strings.Repeat("x", maxFrame)})
	if err == nil || !strings.Contains(err.Error(), "exceeds") || client.stats.attempts.Load() != 0 {
		t.Fatalf("oversize request: err = %v after %d attempts", err, client.stats.attempts.Load())
	}
	// Too large to answer: the server says so in an error reply.
	_, err = client.Call(2, 1, echoReq{N: maxFrame})
	if err == nil || !strings.Contains(err.Error(), "exceeds") || client.stats.attempts.Load() != 1 {
		t.Fatalf("oversize reply: err = %v after %d attempts", err, client.stats.attempts.Load())
	}
	if _, err := client.Call(2, 1, echoReq{N: 3}); err != nil || client.stats.dials.Load() != 1 {
		t.Fatalf("call after oversize reply: err = %v, %d dials; want the same connection", err, client.stats.dials.Load())
	}
}

func TestPlainPostGetsUpgradeRequired(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	resp, err := http.Post("http://"+server.Addr()+RPCPath, "application/json", strings.NewReader(`{"from":1,"to":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != upgradeProto {
		t.Fatalf("POST answered %s (Upgrade: %q), want 426 naming %s", resp.Status, resp.Header.Get("Upgrade"), upgradeProto)
	}
	if served := server.ServedCalls(); served != 0 {
		t.Fatalf("a refused POST counted as %d served RPCs", served)
	}
}

// TestCloseWithPeersConnected: http.Server does not know hijacked
// connections, so Close has to end them itself — promptly, leaving no
// goroutine behind, and in a way a peer's in-flight call reads as a dead
// node rather than as its own 2 s deadline. Not parallel: it counts
// goroutines.
func TestCloseWithPeersConnected(t *testing.T) {
	before := runtime.NumGoroutine()
	server := NewTransport()
	if err := server.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	// Node 1 is a two-party barrier: neither call returns until both are
	// inside the server, so the client cannot hand the first call's
	// connection back to its pool before the second dials its own.
	var both sync.WaitGroup
	both.Add(2)
	if err := server.Register(1, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		both.Done()
		both.Wait()
		return echoHandler(from, msg)
	}); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(2, func(simnet.NodeID, simnet.Message) (simnet.Message, error) {
		close(entered)
		<-release
		return echoResp{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	client := NewTransport(WithRetries(2, time.Millisecond, 4*time.Millisecond), noSleep)
	client.SetRoute(1, server.Addr())
	client.SetRoute(2, server.Addr())
	// Two idle inbound connections besides the one held in flight.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(9, 1, echoReq{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	inflight := make(chan error, 1)
	go func() {
		_, err := client.Call(9, 2, echoReq{})
		inflight <- err
	}()
	<-entered
	if in := server.stats.connsIn.Load(); in < 2 {
		t.Fatalf("server tracks %d inbound connections, want >= 2", in)
	}

	start := time.Now()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with peers connected", d)
	}
	select {
	case err := <-inflight:
		if !errors.Is(err, simnet.ErrNodeDead) {
			t.Fatalf("in-flight call ended in %v, want ErrNodeDead", err)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight call still waiting a second after the peer closed")
	}
	close(release)
	client.Close()
	if out := client.stats.connsOut.Load(); out != 0 {
		t.Fatalf("client still counts %d outbound connections after Close", out)
	}
	// Wait for both: goroutines left over from earlier tests can bring
	// the count down to before while a closed connection's goroutine is
	// still on its way out.
	deadline := time.Now().Add(2 * time.Second)
	for (runtime.NumGoroutine() > before || server.stats.connsIn.Load() != 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
	if in := server.stats.connsIn.Load(); in != 0 {
		t.Fatalf("server still counts %d inbound connections after Close", in)
	}
}

// TestRestartCostsOneAttempt: the idle connections to a process that
// went away all die with the first one that notices, so the next call
// reaches the restarted process on its second attempt at the latest
// instead of burning its retry budget on stale pooled connections.
func TestRestartCostsOneAttempt(t *testing.T) {
	t.Parallel()
	const pooled = 4
	old := NewTransport()
	if err := old.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	addr := old.Addr()
	var arrived sync.WaitGroup
	arrived.Add(pooled)
	if err := old.Register(1, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		arrived.Done()
		arrived.Wait() // hold every connection until all are in use at once
		return echoHandler(from, msg)
	}); err != nil {
		t.Fatal(err)
	}
	client := NewTransport(WithRetries(2, time.Millisecond, 4*time.Millisecond), noSleep)
	defer client.Close()
	client.SetRoute(1, addr)
	var wg sync.WaitGroup
	for i := 0; i < pooled; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(2, 1, echoReq{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := idleTo(client, addr); n != pooled {
		t.Fatalf("%d idle connections, want %d", n, pooled)
	}

	old.Close()
	restarted := NewTransport()
	defer restarted.Close()
	if err := restarted.Start(addr); err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	if err := restarted.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	before := client.stats.attempts.Load()
	resp, err := client.Call(2, 1, echoReq{S: "again"})
	if err != nil || resp.(echoResp).S != "again" {
		t.Fatalf("call after restart = %v, %v", resp, err)
	}
	if used := client.stats.attempts.Load() - before; used > 2 {
		t.Fatalf("call after restart took %d attempts, want <= 2", used)
	}
	if out, idle := client.stats.connsOut.Load(), idleTo(client, addr); out != 1 || idle != 1 {
		t.Fatalf("%d outbound connections open, %d idle; want only the fresh one", out, idle)
	}
}

// TestConcurrentCallsKeepTheirReplies: a connection belongs to one call
// at a time, so replies cannot cross however many callers share a
// client, and the pool never holds more connections than callers.
func TestConcurrentCallsKeepTheirReplies(t *testing.T) {
	t.Parallel()
	const workers, calls = 32, 500
	server := startTransport(t)
	if err := server.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(1, server.Addr())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := echoReq{S: fmt.Sprintf("w%d/%d", w, i), N: uint64(w)<<32 | uint64(i)}
				resp, err := client.Call(simnet.NodeID(w), 1, want)
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if got := resp.(echoResp); got.S != want.S || got.N != want.N {
					t.Errorf("worker %d call %d: reply %+v for request %+v", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	out, dials, idle := client.stats.connsOut.Load(), client.stats.dials.Load(), idleTo(client, server.Addr())
	if out > workers || dials > workers || idle > maxIdlePerPeer || int64(idle) != out {
		t.Fatalf("%d outbound connections (%d idle) from %d dials; want <= %d, all idle", out, idle, dials, workers)
	}
	if c := client.Meter().Snapshot(); c.Calls != workers*calls || c.Failures != 0 {
		t.Fatalf("meter = %+v, want %d calls", c, workers*calls)
	}
	if served := server.ServedCalls(); served != workers*calls {
		t.Fatalf("server served %d, want %d", served, workers*calls)
	}
}

// TestIdlePoolCap: connections checked in beyond the cap are closed.
func TestIdlePoolCap(t *testing.T) {
	t.Parallel()
	const callers = maxIdlePerPeer + 8
	server := startTransport(t)
	var arrived sync.WaitGroup
	arrived.Add(callers)
	if err := server.Register(1, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		arrived.Done()
		arrived.Wait()
		return echoHandler(from, msg)
	}); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(1, server.Addr())
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Call(2, 1, echoReq{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if out, idle := client.stats.connsOut.Load(), idleTo(client, server.Addr()); out != maxIdlePerPeer || idle != maxIdlePerPeer {
		t.Fatalf("%d open, %d idle after %d simultaneous calls; want the cap %d", out, idle, callers, maxIdlePerPeer)
	}
}

// TestReentrantChain: A→B, whose handler calls B→A, whose handler calls
// A→B again. Each hop holds its own connection, so nothing waits on a
// connection that is busy further up the chain.
func TestReentrantChain(t *testing.T) {
	t.Parallel()
	a, b := startTransport(t), startTransport(t)
	hop := func(self *Transport, me, peer simnet.NodeID) simnet.Handler {
		return func(_ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
			m := msg.(echoReq)
			if m.N == 0 {
				return echoResp{S: m.S + "."}, nil
			}
			resp, err := self.Call(me, peer, echoReq{S: m.S + fmt.Sprint(me), N: m.N - 1})
			if err != nil {
				return nil, err
			}
			return resp, nil
		}
	}
	if err := a.Register(1, hop(a, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(2, hop(b, 2, 1)); err != nil {
		t.Fatal(err)
	}
	a.SetRoute(2, b.Addr())
	b.SetRoute(1, a.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := a.Call(1, 2, echoReq{N: 2})
		if err != nil {
			t.Errorf("chain: %v", err)
			return
		}
		if got := resp.(echoResp).S; got != "21." {
			t.Errorf("chain visited %q, want \"21.\"", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("re-entrant chain did not complete")
	}
}

func TestSlowHandlerDoesNotDelayFastCall(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	entered := make(chan struct{})
	if err := server.Register(1, func(simnet.NodeID, simnet.Message) (simnet.Message, error) {
		close(entered)
		time.Sleep(300 * time.Millisecond)
		return echoResp{S: "slow"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := server.Register(2, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoute(1, server.Addr())
	client.SetRoute(2, server.Addr())
	slow := make(chan error, 1)
	go func() {
		_, err := client.Call(9, 1, echoReq{})
		slow <- err
	}()
	<-entered
	start := time.Now()
	if _, err := client.Call(9, 2, echoReq{S: "fast"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("fast call took %v beside a 300 ms handler", d)
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestTimedOutConnectionIsNeverReused: the reply to a timed-out request
// still arrives on its connection; were that connection pooled, the next
// call on it would read the wrong reply.
func TestTimedOutConnectionIsNeverReused(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	var first atomic.Bool
	replied := make(chan struct{})
	if err := server.Register(1, func(_ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		if first.CompareAndSwap(false, true) {
			defer close(replied)
			time.Sleep(100 * time.Millisecond)
			return echoResp{S: "late"}, nil
		}
		return echoHandler(0, msg)
	}); err != nil {
		t.Fatal(err)
	}
	client := NewTransport(WithCallTimeout(30*time.Millisecond), WithRetries(0, 0, 0))
	defer client.Close()
	client.SetRoute(1, server.Addr())
	if _, err := client.Call(2, 1, echoReq{S: "one"}); !errors.Is(err, simnet.ErrDropped) {
		t.Fatalf("first call = %v, want ErrDropped", err)
	}
	if out, idle := client.stats.connsOut.Load(), idleTo(client, server.Addr()); out != 0 || idle != 0 {
		t.Fatalf("after a timeout %d connections open, %d idle; want none", out, idle)
	}
	<-replied
	for i := 0; i < 3; i++ {
		want := fmt.Sprint("call ", i)
		resp, err := client.Call(2, 1, echoReq{S: want})
		if err != nil || resp.(echoResp).S != want {
			t.Fatalf("call %d after the timeout = %v, %v; want its own reply", i, resp, err)
		}
	}
	if d := client.stats.dials.Load(); d != 2 {
		t.Fatalf("%d dials, want 2 (one discarded, one reused)", d)
	}
}

// TestSetRoutesFlushesIdle: a replaced routing table drops the pooled
// connections with it, so peers that left the table do not pin sockets.
func TestSetRoutesFlushesIdle(t *testing.T) {
	t.Parallel()
	server := startTransport(t)
	if err := server.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	client := startTransport(t)
	client.SetRoutes(map[simnet.NodeID]string{1: server.Addr()})
	if _, err := client.Call(2, 1, echoReq{}); err != nil {
		t.Fatal(err)
	}
	client.SetRoutes(map[simnet.NodeID]string{})
	if out := client.stats.connsOut.Load(); out != 0 {
		t.Fatalf("%d outbound connections survive a routing-table swap", out)
	}
}

// FuzzServeConn feeds the server untrusted bytes: directly into the
// frame loop (where a panic surfaces here), and over a socket either in
// place of the upgrade request or after a valid one. Whatever arrives,
// the server must not panic, must answer only with well-formed frames,
// and must keep serving a well-behaved client's pooled connection.
func FuzzServeConn(f *testing.F) {
	req := frame{from: 2, to: 1, trace: 5, name: "wiretest.echoReq", body: []byte(`{"S":"hi","N":3}`)}
	valid := appendFrame(nil, &req)
	f.Add(true, valid)
	f.Add(true, append(append([]byte(nil), valid...), valid[:len(valid)-3]...))
	f.Add(true, binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(true, binary.BigEndian.AppendUint32(nil, frameHeader-1))
	f.Add(true, append(binary.BigEndian.AppendUint32(nil, frameHeader), make([]byte, frameHeader-2)...))
	f.Add(true, appendFrame(nil, &frame{to: 1, name: "wiretest.nope", body: []byte("{")}))
	f.Add(true, appendFrame(nil, &frame{to: 1, name: "wiretest.echoReq", body: []byte(`{"S":7}`)}))
	f.Add(false, valid)
	f.Add(false, []byte("POST /wire HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"))
	f.Add(false, []byte("GET /wire HTTP/1.1\r\nHost: x\r\nUpgrade: randpeer-wire/1\r\n\r\n\xff\xff\xff\xff"))
	f.Add(false, []byte("\x00\x00\x00\x1b garbage"))

	server := NewTransport()
	if err := server.Register(1, echoHandler); err != nil {
		f.Fatal(err)
	}
	var panicked atomic.Value
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	rpc := server.RPCHandler()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			// net/http would swallow a handler panic into its log.
			if p := recover(); p != nil {
				panicked.Store(fmt.Sprint(p))
			}
		}()
		rpc.ServeHTTP(w, r)
	})}
	go func() { _ = srv.Serve(lis) }()
	client := NewTransport(noSleep)
	client.SetRoute(1, lis.Addr().String())
	f.Cleanup(func() {
		client.Close()
		srv.Close()
		server.Close()
	})

	f.Fuzz(func(t *testing.T, upgrade bool, data []byte) {
		if upgrade {
			var replies bytes.Buffer
			server.serveConn(&replies, bufio.NewReader(bytes.NewReader(data)))
			r, n := bufio.NewReader(&replies), 0
			var buf []byte
			for {
				if _, err := readFrame(r, &buf); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("server wrote a malformed reply (frame %d): %v", n, err)
				}
				n++
			}
			if most := len(data) / (4 + frameHeader); n > most {
				t.Fatalf("%d replies to %d bytes, which hold at most %d requests", n, len(data), most)
			}
		}
		var nc net.Conn
		if upgrade {
			nc, _ = rawUpgrade(t, lis.Addr().String())
		} else {
			var err error
			if nc, err = net.Dial("tcp", lis.Addr().String()); err != nil {
				t.Fatal(err)
			}
			_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		}
		defer nc.Close()
		if _, err := nc.Write(data); err == nil {
			_ = nc.(*net.TCPConn).CloseWrite()
			// The server hangs up once it has read our EOF (or sooner).
			// A reset (it closed with our bytes unread) is as good as an EOF.
			if _, err := io.Copy(io.Discard, nc); err != nil && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("server kept the connection open: %v", err)
			}
		}
		if p := panicked.Load(); p != nil {
			t.Fatalf("server panicked: %v", p)
		}
		resp, err := client.Call(2, 1, echoReq{S: "still here", N: 1})
		if err != nil || resp.(echoResp).S != "still here" {
			t.Fatalf("well-behaved client after the fuzzed connection: %v, %v", resp, err)
		}
		if d := client.stats.dials.Load(); d != 1 {
			t.Fatalf("well-behaved client dialed %d times, want 1 (its connection is not the fuzzed one)", d)
		}
	})
}

// FuzzReadReply plays a malicious server: after a correct handshake and
// request it answers with arbitrary bytes and hangs up. Whatever they
// are, the call ends in a reply or an error of the taxonomy, and a
// connection that carried anything but a well-formed frame is gone.
func FuzzReadReply(f *testing.F) {
	f.Add(appendFrame(nil, &frame{name: "wiretest.echoResp", body: []byte(`{"S":"ok","N":1}`)}))
	f.Add(appendFrame(nil, &frame{isErr: true, name: kindUnknownNode, body: []byte("no such node")}))
	f.Add(appendFrame(nil, &frame{isErr: true, name: "weird", body: []byte("boom")}))
	f.Add(appendFrame(nil, &frame{name: "wiretest.unknown", body: []byte(`{}`)}))
	f.Add(appendFrame(nil, &frame{name: "wiretest.echoResp", body: []byte(`{"S":`)}))
	f.Add(appendFrame(nil, &frame{name: "wiretest.echoResp", body: []byte(`{}`)})[:20])
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, frameHeader), make([]byte, frameHeader-2)...))
	f.Add([]byte{})

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { lis.Close() })
	var answer atomic.Pointer[[]byte]
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+upgradeProto+"\r\n\r\n")
				var buf []byte
				if _, err := readFrame(br, &buf); err != nil {
					return
				}
				nc.Write(*answer.Load())
			}()
		}
	}()

	f.Fuzz(func(t *testing.T, data []byte) {
		// The fake server may still be writing when the call returns (the
		// client stops at the first frame), and the engine reuses data.
		data = bytes.Clone(data)
		answer.Store(&data)
		client := NewTransport(WithRetries(1, time.Millisecond, time.Millisecond), noSleep)
		defer client.Close()
		addr := lis.Addr().String()
		client.SetRoute(1, addr)
		resp, err := client.Call(2, 1, echoReq{S: "q"})

		var buf []byte
		reply, ferr := readFrame(bufio.NewReader(bytes.NewReader(data)), &buf)
		out := client.stats.connsOut.Load()
		switch {
		case ferr != nil:
			// Truncated, oversize or malformed: retried, then a dead node.
			if !errors.Is(err, simnet.ErrNodeDead) || out != 0 || client.stats.attempts.Load() != 2 {
				t.Fatalf("malformed reply (%v): err = %v, %d connections kept, %d attempts", ferr, err, out, client.stats.attempts.Load())
			}
		case reply.isErr:
			// A well-formed error reply is authoritative and in sync.
			if want := simnet.ClassError(reply.name); err == nil || (want != nil && !errors.Is(err, want)) || out != 1 {
				t.Fatalf("error reply %q: err = %v, %d connections kept", reply.name, err, out)
			}
		default:
			if _, derr := decodeMessage(reply.name, reply.body); derr != nil {
				if err == nil || simnet.ErrorClass(err) != kindApp || out != 0 {
					t.Fatalf("undecodable reply (%v): err = %v, %d connections kept", derr, err, out)
				}
			} else if err != nil || resp == nil || out != 1 {
				t.Fatalf("valid reply: resp = %v, err = %v, %d connections kept", resp, err, out)
			}
		}
		if client.stats.attempts.Load() > 2 || int64(idleTo(client, addr)) != out {
			t.Fatalf("%d attempts, %d idle of %d open", client.stats.attempts.Load(), idleTo(client, addr), out)
		}
	})
}

// remotePair returns a client routed to an echo node on a server, both
// over loopback, with one connection already pooled.
func remotePair(tb testing.TB) *Transport {
	tb.Helper()
	server, client := startTransport(tb), startTransport(tb)
	if err := server.Register(1, echoHandler); err != nil {
		tb.Fatal(err)
	}
	client.SetRoute(1, server.Addr())
	if _, err := client.Call(2, 1, echoReq{}); err != nil {
		tb.Fatal(err)
	}
	return client
}

// remoteCallAllocBudget bounds the heap allocations of one remote Call,
// both processes' sides counted (they share this test's heap): the JSON
// payload codec on each side, the boxed messages and the frame's name.
// The connection, its reader and both frame buffers are reused.
const remoteCallAllocBudget = 24

func TestAllocBudgetRemoteCall(t *testing.T) {
	raceflag.SkipBudgets(t)
	client := remotePair(t)
	msg := simnet.Message(echoReq{S: "budget", N: 1})
	got := testing.AllocsPerRun(500, func() {
		if _, err := client.Call(2, 1, msg); err != nil {
			t.Fatal(err)
		}
	})
	if got > remoteCallAllocBudget {
		t.Errorf("one remote Call allocates %.1f, budget %d", got, remoteCallAllocBudget)
	}
	if d := client.stats.dials.Load(); d != 1 {
		t.Errorf("%d dials across the run, want 1", d)
	}
}

// BenchmarkWireRemoteCall is one RPC between two transports over
// loopback TCP on a pooled connection: frame out, handler, frame back.
func BenchmarkWireRemoteCall(b *testing.B) {
	client := remotePair(b)
	msg := simnet.Message(echoReq{S: "bench", N: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(2, 1, msg); err != nil {
			b.Fatal(err)
		}
	}
}
