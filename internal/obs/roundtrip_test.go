package obs_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
)

// FuzzExpositionRoundTrip: a registry built from fuzzed counters,
// gauges and histogram observations, rendered by WritePrometheus and
// read back by obstest, is the registry's own Snapshot — the same keys
// in the same order, the same kinds, the same values, counts and
// buckets exactly. Only a histogram's _sum may move: the format carries
// it as float64 seconds, so it must come back within one float64 ulp
// of its value in seconds (see obstest's HistSnapshot).
//
// ops is read 9 bytes at a time: an op byte (its low seven bits mod 3
// pick counter add, gauge set or histogram observe, its top bit one of
// two label values) and a little-endian int64 operand.
func FuzzExpositionRoundTrip(f *testing.F) {
	op := func(code byte, v int64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{code}, uint64(v))
	}
	seed := slices.Concat(op(0, 7), op(1, -3), op(2, int64(2*time.Millisecond)),
		op(0x82, 0), op(0x82, math.MaxInt64), op(0x81, math.MinInt64))
	f.Add(`dead "x"\n\`, 0.25, seed)
	f.Add("", math.NaN(), op(2, 1<<52))
	f.Add("max", 1e300, op(2, math.MaxInt64)) // _sum renders as 2^63 ns
	f.Add("ok", math.Inf(-1), slices.Concat(op(2, 4_190_000_000_000_000), op(2, 1)))
	f.Fuzz(func(t *testing.T, label string, ratio float64, ops []byte) {
		r := obs.NewRegistry()
		r.GaugeFunc("fz_ratio", "a float reading", func() float64 { return ratio })
		values := [2]string{"a", label}
		for ; len(ops) >= 9; ops = ops[9:] {
			l := obs.Label{Name: "kind", Value: values[ops[0]>>7]}
			v := int64(binary.LittleEndian.Uint64(ops[1:9]))
			switch (ops[0] & 0x7f) % 3 {
			case 0:
				r.Counter("fz_calls_total", "calls", l).Add(v & math.MaxInt64)
			case 1:
				r.Gauge("fz_inflight", "in flight", l).Set(v)
			case 2:
				r.Histogram("fz_rtt_seconds", "round trips", l).Observe(time.Duration(v))
			}
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := obstest.Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("parsing own exposition: %v\n%s", err, buf.String())
		}
		got, want := e.Snapshot(), r.Snapshot()
		if !slices.Equal(got.Keys, want.Keys) {
			t.Fatalf("keys %q; registry has %q", got.Keys, want.Keys)
		}
		for _, key := range want.Keys {
			g, w := got.Series[key], want.Series[key]
			if g.Kind != w.Kind {
				t.Fatalf("%s: kind %d; registry has %d", key, g.Kind, w.Kind)
			}
			if g.Value != w.Value && !(math.IsNaN(g.Value) && math.IsNaN(w.Value)) {
				t.Fatalf("%s: value %v; registry has %v", key, g.Value, w.Value)
			}
			if g.Hist.Count != w.Hist.Count || g.Hist.Buckets != w.Hist.Buckets {
				t.Fatalf("%s: histogram %+v; registry has %+v", key, g.Hist, w.Hist)
			}
			gs, ws := float64(g.Hist.SumNanos)/1e9, float64(w.Hist.SumNanos)/1e9
			if ulp := math.Nextafter(math.Abs(ws), math.Inf(1)) - math.Abs(ws); math.Abs(gs-ws) > ulp {
				t.Fatalf("%s: _sum %d ns; registry has %d ns (%v s apart, ulp %v s)",
					key, g.Hist.SumNanos, w.Hist.SumNanos, gs-ws, ulp)
			}
		}
	})
}
