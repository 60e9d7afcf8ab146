package obs

import (
	"math"
	"math/bits"
	"time"
)

// Registry snapshot/delta API. The windowed recorder (internal/load)
// snapshots a registry every Δt of virtual time and subtracts
// consecutive snapshots: counter deltas become per-window rates,
// histogram deltas become per-window quantiles, and gauges carry their
// instantaneous reading. The SLO engine (internal/slo) consumes those
// per-window deltas, so everything it reports inherits the registry's
// determinism: families iterate in registration order and series in
// creation order, making a snapshot a pure function of the instrument
// state it reads.

// SeriesKind tags one snapshot entry with its family's metric kind.
type SeriesKind uint8

// Snapshot series kinds.
const (
	KindCounter SeriesKind = iota
	KindGauge
	KindHistogram
)

// SeriesValue is one snapshot entry: a scalar for counters and gauges,
// a histogram reading for histograms.
type SeriesValue struct {
	Kind  SeriesKind
	Value float64
	Hist  HistSnapshot
}

// RegistrySnapshot is a point-in-time reading of every series in a
// registry. Keys preserves registration order so iteration (and
// therefore everything derived from a snapshot) is deterministic.
type RegistrySnapshot struct {
	// Keys lists every series as name{labels}, in registration order.
	Keys []string
	// Series maps each key to its reading.
	Series map[string]SeriesValue
}

// Key renders the key a snapshot lists a series under: the metric name
// followed by its labels, sorted and escaped as the exposition writes
// them (e.g. calls_total{dest="remote",kind="dead"}).
func Key(name string, labels ...Label) string { return name + renderLabels(labels) }

// Snapshot reads every registered series. Callback instruments
// (CounterFunc, GaugeFunc, HistogramFunc) run outside the registry
// lock, exactly as they do during exposition.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	type entry struct {
		key  string
		kind string
		s    *series
	}
	entries := make([]entry, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		for _, s := range f.series {
			entries = append(entries, entry{key: name + s.labels, kind: f.kind, s: s})
		}
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Keys:   make([]string, 0, len(entries)),
		Series: make(map[string]SeriesValue, len(entries)),
	}
	for _, e := range entries {
		var v SeriesValue
		switch e.kind {
		case kindCounter:
			v.Kind = KindCounter
		case kindGauge:
			v.Kind = KindGauge
		case kindHistogram:
			v.Kind = KindHistogram
		}
		switch {
		case e.s.counter != nil:
			v.Value = float64(e.s.counter.Value())
		case e.s.gauge != nil:
			v.Value = float64(e.s.gauge.Value())
		case e.s.fn != nil:
			v.Value = e.s.fn()
		case e.s.hist != nil:
			v.Hist = e.s.hist.Snapshot()
		case e.s.histFn != nil:
			v.Hist = e.s.histFn()
		}
		snap.Keys = append(snap.Keys, e.key)
		snap.Series[e.key] = v
	}
	return snap
}

// Delta returns the per-series change from prev to s: counters and
// histogram buckets subtract (clamped at zero, so a counter reset — a
// daemon restart, a meter Reset — reads as no progress rather than
// negative progress), gauges keep their current reading. Series absent
// from prev (registered mid-window) count from zero.
func (s RegistrySnapshot) Delta(prev RegistrySnapshot) RegistrySnapshot {
	out := RegistrySnapshot{
		Keys:   append([]string(nil), s.Keys...),
		Series: make(map[string]SeriesValue, len(s.Series)),
	}
	for _, key := range s.Keys {
		cur := s.Series[key]
		old, ok := prev.Series[key]
		if !ok || cur.Kind == KindGauge {
			out.Series[key] = cur
			continue
		}
		switch cur.Kind {
		case KindCounter:
			d := cur.Value - old.Value
			if d < 0 {
				d = 0
			}
			out.Series[key] = SeriesValue{Kind: KindCounter, Value: d}
		case KindHistogram:
			out.Series[key] = SeriesValue{Kind: KindHistogram, Hist: cur.Hist.Sub(old.Hist)}
		}
	}
	return out
}

// Value returns the scalar reading of the series with the given key
// (name{labels}), and whether it exists.
func (s RegistrySnapshot) Value(key string) (float64, bool) {
	v, ok := s.Series[key]
	if !ok || v.Kind == KindHistogram {
		return 0, false
	}
	return v.Value, ok
}

// Hist returns the histogram reading of the series with the given key,
// and whether it exists as a histogram.
func (s RegistrySnapshot) Hist(key string) (HistSnapshot, bool) {
	v, ok := s.Series[key]
	if !ok || v.Kind != KindHistogram {
		return HistSnapshot{}, false
	}
	return v.Hist, true
}

// Sub returns the bucket-wise difference h - prev, clamped at zero per
// bucket so a reset histogram reads as empty rather than negative. Sum
// and count are re-derived from the clamped buckets' side: when no
// bucket clamped, SumNanos subtracts exactly; after a reset it clamps
// to the current reading's sum.
func (h HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var out HistSnapshot
	clamped := false
	for i := range h.Buckets {
		d := h.Buckets[i] - prev.Buckets[i]
		if d < 0 {
			d = 0
			clamped = true
		}
		out.Buckets[i] = d
		out.Count += d
	}
	out.SumNanos = h.SumNanos - prev.SumNanos
	if clamped || out.SumNanos < 0 {
		out.SumNanos = h.SumNanos
	}
	return out
}

// Add returns the bucket-wise sum h + o: the merge of two readings, as
// when windows or daemons are pooled into one distribution.
func (h HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	h.Count += o.Count
	h.SumNanos += o.SumNanos
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	return h
}

// AddN returns h with n more observations of exactly d (negative d
// clamps to zero, as in Observe).
func (h HistSnapshot) AddN(d time.Duration, n int64) HistSnapshot {
	d = max(d, 0)
	h.Count += n
	h.SumNanos += int64(d) * n
	h.Buckets[histBucketOf(int64(d))] += n
	return h
}

// Mean returns the mean recorded duration (zero when empty).
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// durations by locating the bucket holding the rank and interpolating
// linearly inside it. The power-of-two bucket scheme bounds the
// estimate's relative error by the bucket width (a factor of two); the
// interpolation removes the systematic upward bias a bucket-upper-bound
// estimate would carry, which matters because the SLO engine compares
// these estimates against latency objectives. TestHistQuantileAccuracy
// measures the realized error against exact quantiles.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.Count-1))
	var seen int64
	for b, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if rank < seen+c {
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			hi := lo << 1
			frac := float64(rank-seen) / float64(c)
			return time.Duration(lo + int64(frac*float64(hi-lo)))
		}
		seen += c
	}
	return time.Duration(h.SumNanos / h.Count) // unreachable when counts are consistent
}

// CountAbove estimates how many recorded durations exceeded d: every
// observation in buckets strictly above d's bucket, plus a linear
// share of d's own bucket. The SLO engine uses it to count latency-
// objective breaches from a histogram delta.
func (h HistSnapshot) CountAbove(d time.Duration) int64 {
	if d < 0 {
		d = 0
	}
	target := histBucketOf(int64(d))
	var above int64
	for b := target + 1; b < histBuckets; b++ {
		above += h.Buckets[b]
	}
	if c := h.Buckets[target]; c > 0 && target > 0 {
		lo := int64(1) << (target - 1)
		hi := lo << 1
		frac := float64(hi-int64(d)) / float64(hi-lo) // share of the bucket above d
		above += int64(math.Round(frac * float64(c)))
	}
	return above
}

// histBucketOf maps nanoseconds to the histogram bucket index (the
// same mapping Observe uses).
func histBucketOf(nanos int64) int {
	return bits.Len64(uint64(nanos)) % histBuckets
}
