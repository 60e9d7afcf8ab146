package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/engine"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// The traced pass sees a sample only through the three public
// interfaces it crosses, so the span tree is fixed:
//
//	sample -> dht.H | dht.Next -> transport.Call -> handler
//
// (trials inside a sample are not visible from outside). A span's self
// time is its duration minus the time its child spans cover.
type spanOp int

const (
	opSample spanOp = iota
	opH
	opNext
	opCall
	opHandler
	numOps
)

var opNames = [numOps]string{"sample", "dht.H", "dht.Next", "transport.Call", "handler"}

// fullTrees is how many samples keep their whole span tree; beyond it
// only the per-op aggregates grow (a chord sample alone is ~1400 spans).
const fullTrees = 100

// spanRecord is one span of a retained tree. Times are nanoseconds
// since the tracer was created; Parent indexes the tracer's span list
// (-1 for a sample root); Sample is the per-sample id the tree shares.
type spanRecord struct {
	Name    string `json:"name"`
	Sample  int    `json:"sample"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type opAgg struct {
	count       int64
	total, self time.Duration
}

type openSpan struct {
	op       spanOp
	start    time.Duration // since the tracer's t0, as every reading is
	children time.Duration
	record   int // index into spans, -1 when not retained
}

// tracer accumulates spans for one workload. The traced workloads
// issue every call on one goroutine at a time (closed loop, or the
// batch engine at workers=1), so the open-span stack needs no lock.
type tracer struct {
	// on gates the decorators: set-up calls (the size estimate, the
	// overlay build) pass through untimed, outside any sample.
	on      bool
	t0      time.Time
	stack   []openSpan
	agg     [numOps]opAgg
	callsIn [numOps]int64 // transport calls by the op that issued them
	samples int
	spans   []spanRecord
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stack: make([]openSpan, 0, 8)}
}

// now reads the monotonic clock alone, which costs half a time.Now.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) begin(op spanOp) {
	now := t.now()
	rec := -1
	if t.samples < fullTrees {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].record
		}
		rec = len(t.spans)
		t.spans = append(t.spans, spanRecord{
			Name: opNames[op], Sample: t.samples, Parent: parent,
			StartNs: int64(now),
		})
	}
	if n := len(t.stack); op == opCall && n > 0 {
		t.callsIn[t.stack[n-1].op]++
	}
	t.stack = append(t.stack, openSpan{op: op, start: now, record: rec})
}

func (t *tracer) end() {
	now := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - top.start
	a := &t.agg[top.op]
	a.count++
	a.total += d
	a.self += d - top.children
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
	if top.record >= 0 {
		t.spans[top.record].EndNs = int64(now)
	}
	if top.op == opSample {
		t.samples++
	}
}

// perCall returns total and self time per call of op, in nanoseconds.
func (t *tracer) perCall(op spanOp) (total, self float64) {
	a := t.agg[op]
	if a.count == 0 {
		return 0, 0
	}
	return float64(a.total) / float64(a.count), float64(a.self) / float64(a.count)
}

// selfSum is the self time of every span, which telescopes to the
// total time spent inside sample spans.
func (t *tracer) selfSum() time.Duration {
	var sum time.Duration
	for _, a := range t.agg {
		sum += a.self
	}
	return sum
}

// write stores the aggregates and the retained trees as one JSON file
// under bench/out/ of the checkout and notes where.
func (t *tracer) write(o *outcome, root, workload string, layerOf [numOps]string) error {
	type aggOut struct {
		Layer   string `json:"layer"`
		Op      string `json:"op"`
		Count   int64  `json:"count"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	out := struct {
		Workload   string       `json:"workload"`
		Samples    int          `json:"samples"`
		Aggregates []aggOut     `json:"aggregates"`
		Spans      []spanRecord `json:"spans"`
	}{Workload: workload, Samples: t.samples, Spans: t.spans}
	for op, a := range t.agg {
		if a.count > 0 {
			out.Aggregates = append(out.Aggregates, aggOut{layerOf[op], opNames[op], a.count, int64(a.total), int64(a.self)})
		}
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	o.notef("%d traced samples; spans written to %s", t.samples, path)
	return os.WriteFile(path, data, 0o644)
}

// tracedSampler times Sample. It forwards both fork flavours so the
// batch engine keeps its per-block determinism (and the lock-free
// exclusive fork) when handed the decorated sampler.
type tracedSampler struct {
	inner dht.Sampler
	t     *tracer
}

var _ engine.ExclusiveForker = tracedSampler{}

func (s tracedSampler) Name() string { return s.inner.Name() }

func (s tracedSampler) Sample() (dht.Peer, error) {
	if !s.t.on {
		return s.inner.Sample()
	}
	s.t.begin(opSample)
	p, err := s.inner.Sample()
	s.t.end()
	return p, err
}

func (s tracedSampler) Fork(seed uint64) (dht.Sampler, error) {
	f, ok := s.inner.(engine.Forker)
	if !ok {
		return nil, fmt.Errorf("bench: sampler %s cannot fork", s.inner.Name())
	}
	inner, err := f.Fork(seed)
	return tracedSampler{inner, s.t}, err
}

func (s tracedSampler) ForkExclusive(seed uint64) (dht.Sampler, error) {
	f, ok := s.inner.(engine.ExclusiveForker)
	if !ok {
		return s.Fork(seed)
	}
	inner, err := f.ForkExclusive(seed)
	return tracedSampler{inner, s.t}, err
}

// tracedDHT times H and Next.
type tracedDHT struct {
	dht.DHT
	t *tracer
}

func (d tracedDHT) H(x ring.Point) (dht.Peer, error) {
	if !d.t.on {
		return d.DHT.H(x)
	}
	d.t.begin(opH)
	p, err := d.DHT.H(x)
	d.t.end()
	return p, err
}

func (d tracedDHT) Next(p dht.Peer) (dht.Peer, error) {
	if !d.t.on {
		return d.DHT.Next(p)
	}
	d.t.begin(opNext)
	q, err := d.DHT.Next(p)
	d.t.end()
	return q, err
}

// tracedTransport times Call and every handler registered through it.
// It forwards RegisterMulti so overlays keep their bulk registration
// (one handler per network) and builds stay bulk.
type tracedTransport struct {
	simnet.Transport
	t *tracer
}

var _ simnet.MultiRegistrar = tracedTransport{}

func (tr tracedTransport) Call(from, to simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
	if !tr.t.on {
		return tr.Transport.Call(from, to, msg)
	}
	tr.t.begin(opCall)
	resp, err := tr.Transport.Call(from, to, msg)
	tr.t.end()
	return resp, err
}

func (tr tracedTransport) Register(id simnet.NodeID, h simnet.Handler) error {
	return tr.Transport.Register(id, func(from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		if !tr.t.on {
			return h(from, msg)
		}
		tr.t.begin(opHandler)
		resp, err := h(from, msg)
		tr.t.end()
		return resp, err
	})
}

func (tr tracedTransport) RegisterMulti(owns func(simnet.NodeID) bool, h simnet.MultiHandler) error {
	mr, ok := tr.Transport.(simnet.MultiRegistrar)
	if !ok {
		return fmt.Errorf("bench: %T has no bulk registration", tr.Transport)
	}
	return mr.RegisterMulti(owns, func(to, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		if !tr.t.on {
			return h(to, from, msg)
		}
		tr.t.begin(opHandler)
		resp, err := h(to, from, msg)
		tr.t.end()
		return resp, err
	})
}

// timedOverlay times the three write paths the churn driver exercises.
type timedOverlay struct {
	churn.Overlay
	join, crash, maintain opAgg
}

func (o *timedOverlay) Join(id, via ring.Point) error {
	start := time.Now()
	err := o.Overlay.Join(id, via)
	o.join.count++
	o.join.total += time.Since(start)
	return err
}

func (o *timedOverlay) Crash(id ring.Point) error {
	start := time.Now()
	err := o.Overlay.Crash(id)
	o.crash.count++
	o.crash.total += time.Since(start)
	return err
}

func (o *timedOverlay) Maintain(rounds, fingersPerRound int) {
	start := time.Now()
	o.Overlay.Maintain(rounds, fingersPerRound)
	o.maintain.count += int64(rounds)
	o.maintain.total += time.Since(start)
}

// usPer is total/count in microseconds (0 with no calls).
func (a opAgg) usPer() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count) / 1e3
}
