package simnet

import (
	"sync"
	"testing"
	"time"
)

// Edge cases of the meter's latency histogram: empty snapshots,
// saturation of a single bucket, Reset racing the constant-latency fast
// lane, and a reading taken across a Reset.

func TestLatencyEmptyQuantiles(t *testing.T) {
	t.Parallel()
	var m Meter
	l := m.Latency()
	if l.Count != 0 || l.SumNanos != 0 {
		t.Fatalf("empty histogram: count %d sum %d", l.Count, l.SumNanos)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := l.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if l.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", l.Mean())
	}
}

func TestLatencySingleBucketSaturation(t *testing.T) {
	t.Parallel()
	var m Meter
	// 1500ns lands in bucket [1024, 2048); with every record identical
	// all quantiles must interpolate inside that one bucket.
	const d = 1500 * time.Nanosecond
	const n = 10_000
	for i := 0; i < n; i++ {
		m.RecordLatency(d)
	}
	l := m.Latency()
	if l.Count != n {
		t.Fatalf("count = %d, want %d", l.Count, n)
	}
	if l.SumNanos != n*int64(d) {
		t.Fatalf("sum = %d, want %d", l.SumNanos, n*int64(d))
	}
	var nonzero int
	for b, c := range l.Buckets {
		if c == 0 {
			continue
		}
		nonzero++
		if c != n {
			t.Fatalf("bucket %d holds %d records, want all %d", b, c, n)
		}
	}
	if nonzero != 1 {
		t.Fatalf("%d buckets populated, want exactly 1", nonzero)
	}
	lo, hi := time.Duration(1024), time.Duration(2048)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := l.Quantile(q); got < lo || got >= hi {
			t.Errorf("Quantile(%v) = %v outside saturated bucket [%v, %v)", q, got, lo, hi)
		}
	}
	if mean := l.Mean(); mean != d {
		t.Errorf("Mean = %v, want %v", mean, d)
	}
}

func TestLatencyZeroAndNegativeRecords(t *testing.T) {
	t.Parallel()
	var m Meter
	m.RecordLatency(0)
	m.RecordLatency(-5 * time.Second) // clamped to zero
	l := m.Latency()
	if l.Count != 2 || l.SumNanos != 0 {
		t.Fatalf("count %d sum %d, want 2 and 0", l.Count, l.SumNanos)
	}
	if l.Buckets[0] != 2 {
		t.Fatalf("zero bucket holds %d, want 2", l.Buckets[0])
	}
	if got := l.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", got)
	}
}

// TestLatencyResetDuringConstLane races Reset against the
// constant-latency fast lane. The invariant under the race: snapshots
// never tear into inconsistency worse than the documented per-counter
// linearizability — counts stay non-negative and within the number of
// charges issued — and after the chargers quiesce, one final Reset
// leaves the meter truly empty (Reset must clear the lane's counter,
// not just the explicit histogram).
func TestLatencyResetDuringConstLane(t *testing.T) {
	t.Parallel()
	var m Meter
	const d = time.Millisecond
	m.ArmConstLatency(d)

	const chargers = 4
	const perCharger = 5_000
	var chargeWG sync.WaitGroup
	chargeWG.Add(chargers)
	for i := 0; i < chargers; i++ {
		go func() {
			defer chargeWG.Done()
			for j := 0; j < perCharger; j++ {
				m.ChargeConstSuccess()
			}
		}()
	}
	stop := make(chan struct{})
	resetDone := make(chan struct{})
	go func() {
		defer close(resetDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Reset()
			l := m.Latency()
			if l.Count < 0 || l.Count > chargers*perCharger {
				t.Errorf("snapshot count %d out of range [0, %d]", l.Count, chargers*perCharger)
				return
			}
			if want := l.Count * int64(d); l.SumNanos != want {
				t.Errorf("const lane sum %d != count %d x %v", l.SumNanos, l.Count, d)
				return
			}
		}
	}()
	chargeWG.Wait()
	close(stop)
	<-resetDone

	// Quiesced: a final reset must leave nothing behind, including the
	// fast lane's derived records.
	m.Reset()
	l := m.Latency()
	if l.Count != 0 || l.SumNanos != 0 {
		t.Fatalf("after quiesced reset: count %d sum %d, want 0", l.Count, l.SumNanos)
	}
	if n := m.Snapshot(); n.Calls != 0 || n.Messages != 0 {
		t.Fatalf("after quiesced reset: snapshot %+v, want zeros", n)
	}
}

// TestLatencySubClampsAtReset: a Reset between two readings must make
// their difference read empty, not negative — the reading a windowed
// consumer takes across a meter reset.
func TestLatencySubClampsAtReset(t *testing.T) {
	t.Parallel()
	var m Meter
	m.ArmConstLatency(time.Millisecond)
	m.RecordLatency(3 * time.Millisecond)
	m.RecordLatency(5 * time.Millisecond)
	m.ChargeConstSuccess()
	before := m.Latency()
	m.Reset()
	d := m.Latency().Sub(before)
	if d.Count != 0 || d.SumNanos != 0 {
		t.Fatalf("delta across Reset: count %d sum %d; want an empty reading", d.Count, d.SumNanos)
	}
	for b, c := range d.Buckets {
		if c != 0 {
			t.Fatalf("delta across Reset: bucket %d holds %d; want 0", b, c)
		}
	}
	if d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Fatalf("delta across Reset: mean %v p50 %v; want zeros", d.Mean(), d.Quantile(0.5))
	}
}
