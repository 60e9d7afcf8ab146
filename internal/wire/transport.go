package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// RPCPath is the URL path every wire transport serves node RPCs on.
// Routes name only host:port; the path is a fixed protocol constant so
// a route entry works against any process running this package.
const RPCPath = "/wire"

const (
	upgradeProto   = "randpeer-wire/1" // Upgrade token: a GET on RPCPath becomes a framed connection
	maxIdlePerPeer = 64                // idle connections kept per address; one more is closed at checkin
)

// Defaults for per-call behaviour; override with the options below.
const (
	// DefaultCallTimeout bounds one RPC attempt end to end (dial, write,
	// handler, read).
	DefaultCallTimeout = 2 * time.Second
	// DefaultMaxRetries is the number of re-attempts after a failed
	// network attempt (so a call costs at most DefaultMaxRetries+1
	// attempts before it reports the mapped failure).
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the pre-jitter delay before the first retry;
	// each further retry doubles it.
	DefaultBackoffBase = 25 * time.Millisecond
	// DefaultBackoffCap bounds the pre-jitter delay growth.
	DefaultBackoffCap = 400 * time.Millisecond
)

// Transport is the simnet.Fabric plus socket delivery: RPCs travel as
// frames over persistent TCP connections. Each process runs one
// Transport: locally registered handlers are served at RPCPath, and
// Call routes by destination node id — in-process destinations dispatch
// directly (same semantics as simnet.Direct), remote destinations get a
// request frame on a connection held for the length of the call, with a
// per-attempt deadline and bounded retries with jittered exponential
// backoff. An armed interceptor rewrites the outcomes of the handlers
// this process hosts, for local callers and served RPCs alike.
//
// Failure mapping into the simnet taxonomy: a destination with no
// route or not registered at its owner fails with ErrUnknownNode; an
// attempt that times out fails with ErrDropped (the message is lost in
// flight); a destination whose process is unreachable (connection
// refused/reset, mid-call crash) fails with ErrNodeDead after the
// retry budget. Handler-level errors pass through without retries.
//
// All methods are safe for concurrent use.
type Transport struct {
	simnet.Fabric

	// mu guards the routing table and the server Start installed.
	mu     sync.RWMutex
	routes map[simnet.NodeID]string
	srv    *http.Server
	lis    net.Listener

	served atomic.Int64
	stats  wireStats

	// tlog, when set, records spans for inbound RPCs carrying a trace
	// id (the server side of the fabric's client-side trace hook). One
	// atomic pointer load when unused.
	tlog atomic.Pointer[obs.TraceLog]

	callTimeout time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffCap  time.Duration

	jmu    sync.Mutex
	jitter *rand.Rand
	sleep  func(time.Duration) // test hook; time.Sleep by default

	// cmu guards the connections the transport owns. Close sets inbound
	// to nil, which is how a late checkin or upgrade learns of it.
	cmu     sync.Mutex
	idle    map[string][]*conn    // per address, most recently used last
	inbound map[net.Conn]struct{} // hijacked by RPCHandler, being served
}

// conn is one upgraded outbound connection. Exactly one call holds it
// between checkout and checkin, so its fields need no lock.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // frame scratch: the request going out, then the reply
}

var (
	_ simnet.Transport     = (*Transport)(nil)
	_ obs.Traceable        = (*Transport)(nil)
	_ simnet.Interceptable = (*Transport)(nil)
)

// wireStats carries the transport's always-on counters: cheap atomic
// adds beside the meter charges, exposed through RegisterMetrics.
type wireStats struct {
	localCalls   atomic.Int64 // calls dispatched to an in-process handler
	remoteCalls  atomic.Int64 // calls routed to a remote process
	attempts     atomic.Int64 // network attempts (first tries + retries)
	retries      atomic.Int64 // attempts beyond a call's first
	backoffNanos atomic.Int64 // total time spent in retry backoff
	dials        atomic.Int64 // outbound connection attempts
	connsOut     atomic.Int64 // open outbound connections, idle or in a call
	connsIn      atomic.Int64 // open inbound (hijacked) connections
	fails        [6]atomic.Int64
}

// failKinds indexes wireStats.fails; the order matches failIndex.
var failKinds = [6]string{kindUnknownNode, kindNodeDead, kindDropped, kindPartitioned, kindClosed, kindApp}

// failIndex maps a taxonomy class to its wireStats.fails slot.
func failIndex(class string) int {
	for i, k := range failKinds {
		if k == class {
			return i
		}
	}
	return len(failKinds) - 1 // "app"
}

// chargeFailure records a failed call on both the meter and the
// per-kind counter.
func (t *Transport) chargeFailure(err error) {
	t.Meter().ChargeFailure()
	t.stats.fails[failIndex(simnet.ErrorClass(err))].Add(1)
}

// Option configures a Transport.
type Option func(*Transport)

// WithCallTimeout sets the per-attempt deadline.
func WithCallTimeout(d time.Duration) Option {
	return func(t *Transport) { t.callTimeout = d }
}

// WithRetries sets the retry budget (re-attempts after the first) and
// the pre-jitter backoff base and cap. maxRetries 0 disables retries.
func WithRetries(maxRetries int, base, maxBackoff time.Duration) Option {
	return func(t *Transport) {
		t.maxRetries = maxRetries
		t.backoffBase = base
		t.backoffCap = maxBackoff
	}
}

// WithJitterSeed seeds the backoff jitter source. Equal seeds produce
// identical backoff schedules, which the determinism tests pin down;
// production daemons seed from entropy.
func WithJitterSeed(seed uint64) Option {
	return func(t *Transport) { t.jitter = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }
}

// WithFaults attaches a local fault-injection plan, checked on every
// outgoing call exactly as simnet.Direct checks it.
func WithFaults(f *simnet.Faults) Option {
	return func(t *Transport) { t.Faults = f }
}

// withSleep replaces the backoff sleeper (tests record the schedule
// instead of waiting it out).
func withSleep(fn func(time.Duration)) Option {
	return func(t *Transport) { t.sleep = fn }
}

// NewTransport returns a wire transport that is ready for local
// registration and outgoing calls. Call Start (or mount RPCHandler on
// an existing server) before expecting inbound RPCs.
func NewTransport(opts ...Option) *Transport {
	t := &Transport{
		routes:      make(map[simnet.NodeID]string),
		callTimeout: DefaultCallTimeout,
		maxRetries:  DefaultMaxRetries,
		backoffBase: DefaultBackoffBase,
		backoffCap:  DefaultBackoffCap,
		jitter:      rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
		sleep:       time.Sleep,
		idle:        make(map[string][]*conn),
		inbound:     make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves the RPC
// endpoint. Use RPCHandler instead when the process multiplexes the
// transport with other HTTP endpoints on one server.
func (t *Transport) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle(RPCPath, t.RPCHandler())
	srv := &http.Server{Handler: mux}
	t.mu.Lock()
	t.lis, t.srv = lis, srv
	t.mu.Unlock()
	go func() { _ = srv.Serve(lis) }()
	return nil
}

// Addr returns the listening address ("" before Start).
func (t *Transport) Addr() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.lis == nil {
		return ""
	}
	return t.lis.Addr().String()
}

// SetRoute maps a node id to the host:port of the process hosting it.
// Registering a local handler shadows any route for that id.
func (t *Transport) SetRoute(id simnet.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[id] = addr
}

// SetRoutes replaces the whole routing table.
func (t *Transport) SetRoutes(routes map[simnet.NodeID]string) {
	next := make(map[simnet.NodeID]string, len(routes))
	for id, addr := range routes {
		next[id] = addr
	}
	t.mu.Lock()
	t.routes = next
	t.mu.Unlock()
	t.flushIdle("") // or connections to a peer the new table dropped sit dead in the pool for good
}

// ServedCalls returns the number of inbound RPCs this transport's
// handler side has served (successfully or not). Outbound accounting
// lives on the meter, mirroring the in-process transports.
func (t *Transport) ServedCalls() int64 { return t.served.Load() }

// Close implements simnet.Transport: it stops the HTTP server, drops
// every handler and route, closes the idle outbound and the inbound
// connections (http.Server leaves hijacked ones alone), and fails
// subsequent calls with ErrClosed. A peer's call in flight here sees
// its connection die: ErrNodeDead, not a timeout.
func (t *Transport) Close() error {
	if !t.Shut() {
		return nil
	}
	t.mu.Lock()
	t.routes = make(map[simnet.NodeID]string)
	srv := t.srv
	t.mu.Unlock()
	if srv != nil {
		_ = srv.Close() // a closed listener and dropped connections are the goal
	}
	t.cmu.Lock()
	inbound := t.inbound
	t.inbound = nil
	t.cmu.Unlock()
	for nc := range inbound {
		_ = nc.Close() // unblocks its serving goroutine, which does the accounting
	}
	t.flushIdle("")
	return nil
}

// SetTraceLog installs the server-side span log: every inbound RPC
// whose envelope carries a trace id records the hop this process
// observed (handler wall time, outcome class). The daemon queries the
// log through /v1/trace?id=N.
func (t *Transport) SetTraceLog(l *obs.TraceLog) { t.tlog.Store(l) }

// Call implements simnet.Transport. While a trace is armed (SetTrace)
// every Call records one client-side obs.Hop, and remote calls carry
// the trace id in their wire envelope so serving processes log the
// matching span.
func (t *Transport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	tr := t.Trace()
	if tr == nil {
		resp, _, _, err := t.call(from, to, msg, 0)
		return resp, err
	}
	start := time.Now()
	resp, remote, attempts, err := t.call(from, to, msg, tr.ID())
	tr.Record(obs.Hop{
		From:      uint64(from),
		To:        uint64(to),
		RPC:       simnet.MessageName(msg),
		WallNanos: time.Since(start).Nanoseconds(),
		Outcome:   simnet.ErrorClass(err),
		Remote:    remote,
		Attempts:  attempts,
	})
	return resp, err
}

// call is the body of Call — resolve → faults → local invoke | remote:
// one logical RPC, dispatched in-process or over the network; a closed
// transport answers ErrClosed uncharged. It reports whether the
// destination was remote and how many network attempts the call
// consumed (0 for local dispatch), and records the wall round trip of
// every success into the meter's latency histogram — which is what the
// wire_rpc_duration_seconds metric exposes, so histogram count
// reconciles with meter calls by construction.
func (t *Transport) call(from, to simnet.NodeID, msg simnet.Message, traceID uint64) (simnet.Message, bool, int, error) {
	dst, err := t.Resolve(to)
	if err == simnet.ErrClosed {
		return nil, false, 0, err
	}
	local := err == nil // else nobody here hosts it: the routing table decides
	if err := t.Faults.Check(from, to, msg); err != nil {
		t.chargeFailure(err)
		return nil, false, 0, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	if local {
		// In-process destination: dispatch directly, exactly like
		// simnet.Direct (no transport locks held during the handler).
		t.stats.localCalls.Add(1)
		start := time.Now()
		resp, err := t.Invoke(dst, from, to, msg)
		if err != nil {
			t.chargeFailure(err)
			return nil, false, 0, fmt.Errorf("call %d->%d: %w", from, to, err)
		}
		t.Meter().ChargeSuccess()
		t.Meter().RecordLatency(time.Since(start))
		return resp, false, 0, nil
	}
	t.mu.RLock()
	addr := t.routes[to]
	t.mu.RUnlock()
	if addr == "" {
		t.chargeFailure(simnet.ErrUnknownNode)
		return nil, true, 0, fmt.Errorf("call %d->%d: %w", from, to, simnet.ErrUnknownNode)
	}
	t.stats.remoteCalls.Add(1)
	start := time.Now()
	resp, attempts, err := t.callRemote(from, to, addr, msg, traceID)
	if err != nil {
		t.chargeFailure(err)
		return nil, true, attempts, err
	}
	t.Meter().ChargeSuccess()
	t.Meter().RecordLatency(time.Since(start))
	return resp, true, attempts, nil
}

// callRemote performs one logical RPC against a remote process:
// bounded attempts with jittered exponential backoff between them,
// each attempt under its own deadline. It returns the number of
// attempts consumed.
func (t *Transport) callRemote(from, to simnet.NodeID, addr string, msg simnet.Message, traceID uint64) (simnet.Message, int, error) {
	name, body, err := encodeMessage(msg)
	if err != nil {
		return nil, 0, err
	}
	req := frame{from: uint64(from), to: uint64(to), trace: traceID, name: name, body: body}
	if err := req.tooLarge(); err != nil {
		return nil, 0, fmt.Errorf("call %d->%d: %w", from, to, err)
	}
	var lastErr error
	attempts := t.maxRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := t.backoff(attempt)
			t.stats.retries.Add(1)
			t.stats.backoffNanos.Add(int64(d))
			t.sleep(d)
		}
		t.stats.attempts.Add(1)
		deadline := time.Now().Add(t.callTimeout)
		c, err := t.checkout(addr, deadline)
		if err != nil {
			lastErr = err
			continue
		}
		reply, err := c.roundTrip(&req, deadline)
		if err != nil {
			// A timed-out connection may still deliver its reply: never
			// reused. Any other failure: the process behind addr is gone.
			t.discard(c)
			if mapNetError(err) != simnet.ErrDropped {
				t.flushIdle(addr)
			}
			lastErr = err
			continue
		}
		// The remote process answered: handler-level and taxonomy errors
		// are authoritative, not transient — no retry. The reply aliases
		// c.buf, so c stays checked out while it decodes.
		resp, err := decodeReply(&reply)
		if err != nil && !reply.isErr {
			t.discard(c) // a peer that sends undecodable payloads
		} else {
			t.checkin(addr, c)
		}
		if err != nil {
			return nil, attempt + 1, fmt.Errorf("call %d->%d: %w", from, to, err)
		}
		return resp, attempt + 1, nil
	}
	return nil, attempts, fmt.Errorf("call %d->%d: %w (%d attempts to %s: %v)",
		from, to, mapNetError(lastErr), attempts, addr, lastErr)
}

// decodeReply turns a reply frame into the payload or the error the
// remote process answered with.
func decodeReply(reply *frame) (simnet.Message, error) {
	if !reply.isErr {
		return decodeMessage(reply.name, reply.body)
	}
	if s := simnet.ClassError(reply.name); s != nil {
		return nil, fmt.Errorf("%w (remote: %s)", s, reply.body)
	}
	return nil, fmt.Errorf("remote: %s", reply.body)
}

// roundTrip writes one request frame and reads its reply, both under
// the attempt's deadline.
func (c *conn) roundTrip(req *frame, deadline time.Time) (frame, error) {
	_ = c.nc.SetDeadline(deadline) // fails only on a closed connection, which the write reports
	c.buf = appendFrame(c.buf[:0], req)
	if _, err := c.nc.Write(c.buf); err != nil {
		return frame{}, err
	}
	return readFrame(c.br, &c.buf)
}

// checkout hands one call a connection to addr: the most recently used
// idle one, or a fresh one dialed and upgraded under the call's deadline.
func (t *Transport) checkout(addr string, deadline time.Time) (*conn, error) {
	t.cmu.Lock()
	if l := t.idle[addr]; len(l) > 0 {
		c := l[len(l)-1]
		t.idle[addr] = l[:len(l)-1]
		t.cmu.Unlock()
		return c, nil
	}
	t.cmu.Unlock()
	t.stats.dials.Add(1)
	nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(deadline)
	br := bufio.NewReader(nc)
	_, err = fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", RPCPath, addr, upgradeProto)
	if err == nil {
		var resp *http.Response
		if resp, err = http.ReadResponse(br, nil); err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
			err = fmt.Errorf("wire: %s answered the upgrade with %q", addr, resp.Status)
		}
	}
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	t.stats.connsOut.Add(1)
	return &conn{nc: nc, br: br}, nil
}

// checkin returns a connection whose call completed in sync to the
// idle pool, or closes it when the pool is full or the transport closed.
func (t *Transport) checkin(addr string, c *conn) {
	t.cmu.Lock()
	keep := t.inbound != nil && len(t.idle[addr]) < maxIdlePerPeer
	if keep {
		t.idle[addr] = append(t.idle[addr], c)
	}
	t.cmu.Unlock()
	if !keep {
		t.discard(c)
	}
}

// discard closes a checked-out connection.
func (t *Transport) discard(c *conn) {
	_ = c.nc.Close()
	t.stats.connsOut.Add(-1)
}

// flushIdle closes the idle connections to addr ("" for every address):
// when one fails, its siblings belong to the same dead generation of
// that process, and each would cost a later call an attempt to find out.
func (t *Transport) flushIdle(addr string) {
	var stale []*conn
	t.cmu.Lock()
	for a, conns := range t.idle {
		if addr == "" || a == addr {
			stale = append(stale, conns...)
			delete(t.idle, a)
		}
	}
	t.cmu.Unlock()
	for _, c := range stale {
		t.discard(c)
	}
}

// backoff returns the jittered delay before the given retry attempt
// (attempt >= 1): base*2^(attempt-1) capped at backoffCap, then
// half-jittered into [d/2, d] so synchronized retry storms decorrelate
// while the schedule stays bounded.
func (t *Transport) backoff(attempt int) time.Duration {
	d := t.backoffBase << uint(attempt-1)
	if d > t.backoffCap || d <= 0 {
		d = t.backoffCap
	}
	half := d / 2
	t.jmu.Lock()
	j := time.Duration(t.jitter.Int64N(int64(half) + 1))
	t.jmu.Unlock()
	return half + j
}

// mapNetError maps an exhausted network-level failure into the simnet
// taxonomy: deadline expiries mean the message (or its reply) was lost
// in flight — ErrDropped; unreachable-network/host errors are
// partition-shaped — the destination process may be fine but no route
// reaches it — ErrPartitioned; everything else (connection
// refused/reset, mid-call EOF) means the destination process is gone —
// ErrNodeDead. The distinction matters operationally: a burst of
// "partitioned" failures in randpeerd's wire_rpc_failures_total metric
// points at the network (or an adversary segmenting it), not at
// crashed peers.
func mapNetError(err error) error {
	if err == nil {
		return simnet.ErrNodeDead
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return simnet.ErrDropped
	}
	if errors.Is(err, syscall.ENETUNREACH) || errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETDOWN) {
		return simnet.ErrPartitioned
	}
	return simnet.ErrNodeDead
}

// RPCHandler returns the HTTP handler serving inbound node RPCs. Mount
// it at RPCPath. A GET carrying "Upgrade: randpeer-wire/1" is answered
// 101 and its connection hijacked to carry frames until the peer hangs
// up or the transport closes; anything else gets 426.
func (t *Transport) RPCHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok || r.Method != http.MethodGet || r.Header.Get("Upgrade") != upgradeProto {
			w.Header().Set("Upgrade", upgradeProto)
			http.Error(w, "wire: GET with Upgrade: "+upgradeProto+" only", http.StatusUpgradeRequired)
			return
		}
		nc, rw, err := hj.Hijack()
		if err != nil {
			return // the server has already given the connection up
		}
		defer nc.Close()
		t.cmu.Lock()
		if t.inbound == nil {
			t.cmu.Unlock()
			return
		}
		t.inbound[nc] = struct{}{}
		t.cmu.Unlock()
		t.stats.connsIn.Add(1)
		defer func() {
			t.stats.connsIn.Add(-1)
			t.cmu.Lock()
			delete(t.inbound, nc)
			t.cmu.Unlock()
		}()
		_ = nc.SetDeadline(time.Time{})
		if _, err := io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+upgradeProto+"\r\n\r\n"); err != nil {
			return
		}
		t.serveConn(nc, rw.Reader)
	})
}

// serveConn answers request frames from r on w until either fails.
// Handlers run inline: the peer has one call on a connection at a time.
func (t *Transport) serveConn(w io.Writer, r *bufio.Reader) {
	var in, out []byte
	for {
		req, err := readFrame(r, &in)
		if err != nil {
			return
		}
		t.served.Add(1)
		reply := t.serveRPC(&req)
		out = appendFrame(out[:0], &reply)
		if _, err := w.Write(out); err != nil {
			return
		}
	}
}

// serveRPC dispatches one inbound RPC to its local handler. When the
// request carries a trace id and a trace log is installed, the hop this
// process observed is recorded under that id.
func (t *Transport) serveRPC(req *frame) frame {
	start := time.Now()
	reply := t.dispatchRPC(req)
	if req.trace != 0 {
		if l := t.tlog.Load(); l != nil {
			outcome := "ok"
			if reply.isErr {
				outcome = reply.name
			}
			l.Record(req.trace, obs.Hop{
				From:      req.from,
				To:        req.to,
				RPC:       req.name,
				WallNanos: time.Since(start).Nanoseconds(),
				Outcome:   outcome,
				Remote:    true,
			})
		}
	}
	return reply
}

// dispatchRPC is the untraced body of serveRPC.
func (t *Transport) dispatchRPC(req *frame) frame {
	dst, err := t.Resolve(simnet.NodeID(req.to))
	if err == simnet.ErrClosed {
		return errFrame(kindClosed, err.Error())
	}
	if err != nil {
		return errFrame(kindUnknownNode, fmt.Sprintf("no node %d here", req.to))
	}
	msg, err := decodeMessage(req.name, req.body)
	if err != nil {
		return errFrame(kindApp, err.Error())
	}
	resp, err := t.Invoke(dst, simnet.NodeID(req.from), simnet.NodeID(req.to), msg)
	if err != nil {
		return errFrame(simnet.ErrorClass(err), err.Error())
	}
	name, body, err := encodeMessage(resp)
	if err != nil {
		return errFrame(kindApp, err.Error())
	}
	reply := frame{name: name, body: body}
	if err := reply.tooLarge(); err != nil {
		return errFrame(kindApp, err.Error())
	}
	return reply
}

// RegisterMetrics exposes the transport's counters and its per-call
// latency histogram on an obs registry under the wire_ prefix. The
// histogram is the meter's: every successful Call records its wall
// round trip there, so the exposed count equals the meter's charged
// calls — the reconciliation the cluster smoke test asserts.
func (t *Transport) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("wire_rpc_calls_total",
		"Outbound RPCs by destination locality.",
		func() float64 { return float64(t.stats.localCalls.Load()) },
		obs.Label{Name: "dest", Value: "local"})
	r.CounterFunc("wire_rpc_calls_total",
		"Outbound RPCs by destination locality.",
		func() float64 { return float64(t.stats.remoteCalls.Load()) },
		obs.Label{Name: "dest", Value: "remote"})
	for i, kind := range failKinds {
		c := &t.stats.fails[i]
		r.CounterFunc("wire_rpc_failures_total",
			"Failed outbound RPCs by simnet taxonomy class.",
			func() float64 { return float64(c.Load()) },
			obs.Label{Name: "kind", Value: kind})
	}
	r.CounterFunc("wire_rpc_attempts_total",
		"Network attempts (first tries plus retries) for remote RPCs.",
		func() float64 { return float64(t.stats.attempts.Load()) })
	r.CounterFunc("wire_rpc_retries_total",
		"Retry attempts beyond each remote RPC's first.",
		func() float64 { return float64(t.stats.retries.Load()) })
	r.CounterFunc("wire_rpc_backoff_seconds_total",
		"Total time spent sleeping in retry backoff.",
		func() float64 { return float64(t.stats.backoffNanos.Load()) / 1e9 })
	r.CounterFunc("wire_rpc_served_total",
		"Inbound RPCs served by this process (successfully or not).",
		func() float64 { return float64(t.served.Load()) })
	r.CounterFunc("wire_conn_dials_total",
		"Outbound connection attempts; flat while calls reuse pooled connections.",
		func() float64 { return float64(t.stats.dials.Load()) })
	r.GaugeFunc("wire_conns_open", "Open framed RPC connections by direction.",
		func() float64 { return float64(t.stats.connsIn.Load()) }, obs.Label{Name: "dir", Value: "in"})
	r.GaugeFunc("wire_conns_open", "Open framed RPC connections by direction.",
		func() float64 { return float64(t.stats.connsOut.Load()) }, obs.Label{Name: "dir", Value: "out"})
	r.HistogramFunc("wire_rpc_duration_seconds",
		"Wall round-trip time of successful outbound RPCs.",
		t.Meter().Latency)
}
