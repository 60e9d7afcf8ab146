// Package obstest validates and parses Prometheus text exposition
// format (version 0.0.4) — the checker the cluster smoke suite runs
// over every daemon's /metrics output, and the parser behind the
// cluster scrape-and-aggregate helpers.
//
// Validation is deliberately strict about the invariants a real
// Prometheus scraper relies on: metric and label names match the
// exposition grammar, TYPE lines precede their samples and appear at
// most once per family, no series is emitted twice, histogram bucket
// counts are cumulative and non-decreasing with a mandatory +Inf
// bucket that equals _count.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/dht-sampling/randompeer/internal/obs"
)

// Sample is one parsed exposition line: a metric name, its label set
// and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed and validated metrics payload.
type Exposition struct {
	// Types maps family name to its declared TYPE.
	Types map[string]string
	// Samples holds every value line in input order.
	Samples []Sample

	byKey map[string]float64
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Parse parses data as Prometheus text exposition format, validating
// it along the way. It returns the parsed exposition or the first
// format violation found.
func Parse(data []byte) (*Exposition, error) {
	e := &Exposition{
		Types: make(map[string]string),
		byKey: make(map[string]float64),
	}
	seenSamples := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := e.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if typ, ok := e.Types[familyOf(s.Name, e.Types)]; !ok {
			return nil, fmt.Errorf("line %d: sample %q precedes its # TYPE line", lineNo, s.Name)
		} else if typ == "histogram" {
			// bucket/sum/count suffixes are checked family-wide below.
			_ = typ
		}
		key := sampleKey(s)
		if seenSamples[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seenSamples[key] = true
		e.Samples = append(e.Samples, s)
		e.byKey[key] = s.Value
	}
	if err := e.checkHistograms(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseComment validates a # HELP or # TYPE line (other comments pass).
func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", typ, name)
		}
		if _, dup := e.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		e.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !nameRE.MatchString(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP line", fields[2])
		}
	}
	return nil
}

// parseSample parses one value line: name[{labels}] value.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("malformed sample line %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", s.Name, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `a="b",c="d"` into dst, handling escaped quotes.
func parseLabels(in string, dst map[string]string) error {
	for len(in) > 0 {
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label in %q", in)
		}
		name := strings.TrimSpace(in[:eq])
		if !labelRE.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		rest := in[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %s: value not quoted", name)
		}
		rest = rest[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		dst[name] = b.String()
		in = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		in = strings.TrimSpace(in)
	}
	return nil
}

// parseValue parses an exposition float (accepting +Inf/-Inf/NaN).
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", v)
	}
	return f, nil
}

// familyOf maps a sample name to its family: histogram samples use the
// _bucket/_sum/_count suffixes of a declared histogram family.
func familyOf(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// checkHistograms validates every histogram family: per-series buckets
// are cumulative, non-decreasing in le, carry +Inf, and +Inf == _count.
func (e *Exposition) checkHistograms() error {
	type bkt struct {
		le  float64
		cum float64
	}
	buckets := make(map[string][]bkt) // series key without le -> buckets
	counts := make(map[string]float64)
	sums := make(map[string]bool)
	for _, s := range e.Samples {
		base := familyOf(s.Name, e.Types)
		if e.Types[base] != "histogram" || base == s.Name {
			continue
		}
		key := base + renderSorted(s.Labels, "le")
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", base)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", base, leStr)
			}
			buckets[key] = append(buckets[key], bkt{le: le, cum: s.Value})
		case strings.HasSuffix(s.Name, "_count"):
			counts[key] = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sums[key] = true
		}
	}
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := math.Inf(-1)
		prev := -1.0
		for _, b := range bs {
			if b.le <= last {
				return fmt.Errorf("histogram series %s: duplicate le %g", key, b.le)
			}
			last = b.le
			if b.cum < prev {
				return fmt.Errorf("histogram series %s: bucket counts not cumulative at le=%g (%g < %g)", key, b.le, b.cum, prev)
			}
			prev = b.cum
		}
		inf := bs[len(bs)-1]
		if !math.IsInf(inf.le, 1) {
			return fmt.Errorf("histogram series %s: missing +Inf bucket", key)
		}
		count, ok := counts[key]
		if !ok {
			return fmt.Errorf("histogram series %s: missing _count", key)
		}
		if count != inf.cum {
			return fmt.Errorf("histogram series %s: _count %g != +Inf bucket %g", key, count, inf.cum)
		}
		if !sums[key] {
			return fmt.Errorf("histogram series %s: missing _sum", key)
		}
	}
	return nil
}

// renderSorted renders labels (minus the skipped names) sorted by
// name, for use as a stable series key.
func renderSorted(labels map[string]string, skip ...string) string {
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	names := make([]string, 0, len(labels))
	for n := range labels {
		if !skipSet[n] {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, n, labels[n])
	}
	b.WriteByte('}')
	return b.String()
}

// sampleKey renders a sample's identity (name plus sorted labels).
func sampleKey(s Sample) string {
	return s.Name + renderSorted(s.Labels)
}

// Snapshot converts the exposition back into the registry reading that
// rendered it: one entry per series, keyed as obs.Key keys it, in
// exposition order (which is the registry's registration order).
// Counters stay counters, histograms are rebuilt by HistSnapshot, and
// every other type reads as a gauge. Comparing two such snapshots with
// obs.RegistrySnapshot.Delta gives a scrape-side window with the same
// reset clamping the in-process recorder has.
func (e *Exposition) Snapshot() obs.RegistrySnapshot {
	snap := obs.RegistrySnapshot{Series: make(map[string]obs.SeriesValue)}
	for _, s := range e.Samples {
		family := familyOf(s.Name, e.Types)
		v := obs.SeriesValue{Kind: obs.KindGauge, Value: s.Value}
		switch e.Types[family] {
		case "counter":
			v.Kind = obs.KindCounter
		case "histogram":
			if s.Name != family+"_count" {
				continue // one entry per series, keyed off _count
			}
			v = obs.SeriesValue{Kind: obs.KindHistogram}
			v.Hist, _ = e.HistSnapshot(family, s.Labels)
		}
		labels := make([]obs.Label, 0, len(s.Labels))
		for name, value := range s.Labels {
			labels = append(labels, obs.Label{Name: name, Value: value})
		}
		key := obs.Key(family, labels...)
		snap.Keys = append(snap.Keys, key)
		snap.Series[key] = v
	}
	return snap
}

// HistSnapshot reconstructs an obs histogram reading from a scraped
// histogram family: the exposition's cumulative power-of-two `le`
// bounds (2^i nanoseconds, rendered in seconds) invert exactly onto
// obs bucket indices, so a scrape-side delta can reuse the same
// Sub/Quantile/CountAbove arithmetic the in-process recorder uses.
// labels selects one series of the family (exact match, minus le); ok
// is false when the family or series is absent.
//
// Count and buckets come back exactly. SumNanos does not always: the
// format carries _sum as float64 seconds, and from about 4.19e15 ns
// (≈ 48 days of summed latency) multiplying it back by 1e9 can land a
// nanosecond or more off. The round trip holds SumNanos to within one
// float64 ulp of its value in seconds (FuzzExpositionRoundTrip), the
// int64 ends included.
func (e *Exposition) HistSnapshot(name string, labels map[string]string) (obs.HistSnapshot, bool) {
	if e.Types[name] != "histogram" {
		return obs.HistSnapshot{}, false
	}
	want := renderSorted(labels)
	var h obs.HistSnapshot
	type bkt struct {
		idx int
		cum int64
	}
	var bs []bkt
	found := false
	for _, s := range e.Samples {
		if renderSorted(s.Labels, "le") != want {
			continue
		}
		switch s.Name {
		case name + "_count":
			h.Count = int64(s.Value)
			found = true
		case name + "_sum":
			h.SumNanos = nanos(s.Value)
		case name + "_bucket":
			le, err := parseValue(s.Labels["le"])
			if err != nil || math.IsInf(le, 1) {
				continue
			}
			idx := int(math.Round(math.Log2(le * 1e9)))
			if idx < 0 || idx >= len(h.Buckets) {
				continue
			}
			bs = append(bs, bkt{idx: idx, cum: int64(s.Value)})
		}
	}
	if !found {
		return obs.HistSnapshot{}, false
	}
	// Cumulative counts at ascending bounds back to per-bucket counts;
	// bounds the writer skipped held no observations.
	sort.Slice(bs, func(i, j int) bool { return bs[i].idx < bs[j].idx })
	var prev int64
	for _, b := range bs {
		h.Buckets[b.idx] = b.cum - prev
		prev = b.cum
	}
	return h, true
}

// nanos converts exposition seconds back to nanoseconds, saturating at
// the int64 range: float64 has no MaxInt64, so a sum within 512 ns of
// it renders as 2^63 ns, which a plain conversion turns negative.
func nanos(seconds float64) int64 {
	switch ns := math.Round(seconds * 1e9); {
	case ns >= math.MaxInt64:
		return math.MaxInt64
	case ns < math.MinInt64:
		return math.MinInt64
	case math.IsNaN(ns):
		return 0
	default:
		return int64(ns)
	}
}

// Value returns the value of the series with the given name and exact
// label set, and whether it exists.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	v, ok := e.byKey[name+renderSorted(labels)]
	return v, ok
}

// Sum adds up every series of the family whose labels are a superset
// of want (nil want matches all series of the name).
func (e *Exposition) Sum(name string, want map[string]string) float64 {
	var total float64
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.Value
		}
	}
	return total
}
