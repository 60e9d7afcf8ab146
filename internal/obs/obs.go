// Package obs is the observability layer of the testbed: a
// dependency-free metrics registry (counters, gauges and the testbed's
// one power-of-two latency histogram, which simnet.Meter records into)
// with Prometheus text-format exposition, plus the hop-level lookup
// trace facility in trace.go.
//
// The registry is stdlib-only by design — the daemon, the wire
// transport, the sim kernel and the cluster harness all expose their
// state through one Registry per process, scraped at /metrics or
// written directly into a buffer by tests. Metric instruments are
// updated with single atomic operations, so instrumented hot paths pay
// no locks and no allocations; callback instruments (CounterFunc,
// GaugeFunc, HistogramFunc) read existing state — a simnet.Meter
// snapshot, a kernel stats record — only at scrape time, so wiring a
// subsystem into the registry adds zero cost to its hot path.
//
// Naming conventions (documented in DESIGN.md §11): snake_case metric
// names prefixed by subsystem (wire_, randpeerd_, sim_kernel_),
// counters suffixed _total, unit suffixes (_seconds, _nanoseconds)
// on everything dimensional. Histogram bucket b counts observations in
// [2^(b-1), 2^b) nanoseconds (bucket 0 counts exact zeros), exposed as
// cumulative `le` bounds in seconds.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready
// to use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: 64
// buckets cover every int64 nanosecond duration.
const histBuckets = 64

// Histogram is a log-bucket latency histogram: bucket b counts
// observations in [2^(b-1), 2^b) nanoseconds, bucket 0 counts exact
// zeros. Observe costs two atomic adds and allocates nothing; the count
// is derived from the buckets at snapshot time. It is the one latency
// histogram of the testbed: a simnet.Meter records every RPC round
// trip into one. The zero value is ready to use; all methods are safe
// for concurrent use.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.sum.Add(int64(d))
	h.buckets[histBucketOf(int64(d))].Add(1)
}

// Sum returns the total observed nanoseconds without reading the
// buckets.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Reset zeroes the histogram, one atomic word at a time: a snapshot
// racing it may see some buckets cleared and others not.
func (h *Histogram) Reset() {
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot returns the current histogram state. Taken while
// observations are in flight it is linearizable per bucket but not an
// atomic cut across them; measure quiesced operations with a
// before/after pair and HistSnapshot.Sub.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is an immutable histogram reading.
type HistSnapshot struct {
	// Count is the number of observations.
	Count int64
	// SumNanos is the total observed duration in nanoseconds.
	SumNanos int64
	// Buckets[b] counts observations in [2^(b-1), 2^b) nanoseconds
	// (Buckets[0] counts exact zeros).
	Buckets [histBuckets]int64
}

// Label is one metric dimension, rendered as name="value" in the
// exposition.
type Label struct {
	Name, Value string
}

// metric kinds inside a family.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one (name, labels) instrument: exactly one of the value
// fields is set.
type series struct {
	labels  string // rendered {a="b",...} or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64      // CounterFunc / GaugeFunc
	hist    *Histogram          //
	histFn  func() HistSnapshot // HistogramFunc
}

// family groups every series sharing one metric name.
type family struct {
	name, help, kind string
	series           []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Create with NewRegistry; all methods are safe for
// concurrent use. Registering the same (name, labels) twice returns
// the existing instrument; registering one name under two kinds or
// help strings panics (a wiring bug, caught at startup like the wire
// codec's double registration).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup finds or creates the family and the series for (name, labels),
// returning (series, true) when the series already existed.
func (r *Registry) lookup(name, help, kind string, labels []Label) (*series, bool) {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if s.labels == rendered {
			return s, true
		}
	}
	s := &series{labels: rendered}
	f.series = append(f.series, s)
	return s, false
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s, existed := r.lookup(name, help, kindCounter, labels)
	if !existed {
		s.counter = new(Counter)
	}
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q%s is a counter func, not a counter", name, s.labels))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read at scrape time
// (for cumulative state owned elsewhere, e.g. a simnet.Meter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s, existed := r.lookup(name, help, kindCounter, labels)
	if existed {
		panic(fmt.Sprintf("obs: metric %q%s registered twice", name, s.labels))
	}
	s.fn = fn
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s, existed := r.lookup(name, help, kindGauge, labels)
	if !existed {
		s.gauge = new(Gauge)
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q%s is a gauge func, not a gauge", name, s.labels))
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s, existed := r.lookup(name, help, kindGauge, labels)
	if existed {
		panic(fmt.Sprintf("obs: metric %q%s registered twice", name, s.labels))
	}
	s.fn = fn
}

// Histogram registers (or returns the existing) histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s, existed := r.lookup(name, help, kindHistogram, labels)
	if !existed {
		s.hist = new(Histogram)
	}
	if s.hist == nil {
		panic(fmt.Sprintf("obs: metric %q%s is a histogram func, not a histogram", name, s.labels))
	}
	return s.hist
}

// HistogramFunc registers a histogram whose state is read at scrape
// time — the adapter for histograms owned elsewhere, such as a
// simnet.Meter's latency histogram.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot, labels ...Label) {
	s, existed := r.lookup(name, help, kindHistogram, labels)
	if existed {
		panic(fmt.Sprintf("obs: metric %q%s registered twice", name, s.labels))
	}
	s.histFn = fn
}

// renderLabels renders labels as {a="b",c="d"} with values escaped, or
// "" when empty. Labels are sorted by name so equal label sets always
// produce one series regardless of argument order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Copy the structure so callback instruments run without the
	// registry lock (a HistogramFunc may itself take locks).
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		cp := &family{name: f.name, help: f.help, kind: f.kind,
			series: append([]*series(nil), f.series...)}
		fams = append(fams, cp)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.hist != nil:
				writeHist(&b, f.name, s.labels, s.hist.Snapshot())
			case s.histFn != nil:
				writeHist(&b, f.name, s.labels, s.histFn())
			}
		}
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// writeHist renders one histogram series: cumulative buckets at
// power-of-two `le` bounds (in seconds), skipping empty buckets, then
// the mandatory +Inf bucket, _sum and _count.
func writeHist(b *strings.Builder, name, labels string, s HistSnapshot) {
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := math.Ldexp(1, i) / 1e9 // bucket i upper bound: 2^i ns
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(labels, fmt.Sprintf(`le="%s"`, formatFloat(le))), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), s.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(s.SumNanos)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, s.Count)
}

// mergeLabels splices an extra label pair into a rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatFloat renders a float the exposition format accepts, with
// enough precision to round-trip.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// Handler returns an HTTP handler serving the registry in text
// exposition format — the daemon mounts it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
