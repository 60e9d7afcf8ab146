package load_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/load"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/sim"
)

var errSynthetic = errors.New("synthetic failure")

// runWorkload runs a synthetic open-loop workload — each request sleeps
// a request-derived virtual duration and fails ~5% of the time — and
// returns the recorded windows plus two trace hashes: the full
// (time,seq,name) hash and the workload-only (time,name) hash that
// ignores recorder ticks.
func runWorkload(t *testing.T, seed uint64, window time.Duration, withRecorder bool) (windows []load.Window, full, workload string, run *load.Run) {
	t.Helper()
	k := sim.NewKernel(seed)
	fullH, workH := fnv.New64a(), fnv.New64a()
	k.SetObserver(func(at time.Duration, seq uint64, proc string) {
		fmt.Fprintf(fullH, "%d/%d/%s;", at, seq, proc)
		if proc != "recorder" {
			fmt.Fprintf(workH, "%d/%s;", at, proc)
		}
	})
	reg := obs.NewRegistry()
	const owners = 8
	var rec *load.Recorder
	run, err := load.Start(k, load.Config{
		Clients:  64,
		Requests: 400,
		MeanGap:  200 * time.Microsecond,
		GapSigma: 1.2,
		ZipfS:    1.1,
		Seed:     seed,
		Registry: reg,
		Owners:   owners,
		Do: func(req load.Request) (int, error) {
			d := time.Duration(req.Rand.Uint64N(uint64(4*time.Millisecond))) + time.Millisecond
			if k.Sleep(d) != nil {
				return -1, sim.ErrStopped
			}
			if req.Rand.Uint64N(20) == 0 {
				return -1, errSynthetic
			}
			return int(req.Client() % owners), nil
		},
		OnDone: func() {
			if rec != nil {
				rec.Flush(k.Now())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withRecorder {
		rec = load.StartRecorder(k, reg, window)
	}
	k.Run()
	if rec != nil {
		windows = rec.Windows()
	}
	return windows, fmt.Sprintf("%x", fullH.Sum64()), fmt.Sprintf("%x", workH.Sum64()), run
}

// fingerprintWindows serializes a window series bit-exactly.
func fingerprintWindows(ws []load.Window) string {
	h := fnv.New64a()
	for _, w := range ws {
		fmt.Fprintf(h, "[%d,%d)", w.Start, w.End)
		for _, key := range w.Delta.Keys {
			sv := w.Delta.Series[key]
			fmt.Fprintf(h, "%s=%d:%g", key, sv.Kind, sv.Value)
			if sv.Kind == obs.KindHistogram {
				fmt.Fprintf(h, "c%ds%d", sv.Hist.Count, sv.Hist.SumNanos)
				for b, c := range sv.Hist.Buckets {
					if c != 0 {
						fmt.Fprintf(h, "b%d=%d", b, c)
					}
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

func TestWindowSeriesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const seed, window = 42, 10 * time.Millisecond
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var wantWindows, wantTrace string
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		ws, full, _, _ := runWorkload(t, seed, window, true)
		fp := fingerprintWindows(ws)
		if wantWindows == "" {
			wantWindows, wantTrace = fp, full
			continue
		}
		if fp != wantWindows {
			t.Errorf("GOMAXPROCS=%d: window series fingerprint %s != %s", procs, fp, wantWindows)
		}
		if full != wantTrace {
			t.Errorf("GOMAXPROCS=%d: kernel trace %s != %s", procs, full, wantTrace)
		}
	}
}

func TestRecorderOffTraceUnchanged(t *testing.T) {
	// Recorder-off runs must produce exactly the baseline (time,seq,name)
	// trace — the recorder that isn't scheduled costs nothing and shifts
	// nothing.
	_, offA, _, _ := runWorkload(t, 7, 10*time.Millisecond, false)
	_, offB, _, _ := runWorkload(t, 7, 10*time.Millisecond, false)
	if offA != offB {
		t.Fatalf("recorder-off trace not reproducible: %s vs %s", offA, offB)
	}
	// Recorder-on shifts seqs (its ticks consume sequence numbers) but
	// must preserve the (time,name) order of workload events.
	_, onFull, onWork, _ := runWorkload(t, 7, 10*time.Millisecond, true)
	_, _, offWork, _ := runWorkload(t, 7, 10*time.Millisecond, false)
	if onWork != offWork {
		t.Fatalf("recorder changed the workload (time,name) trace: %s vs %s", onWork, offWork)
	}
	if onFull == offA {
		t.Fatal("recorder-on full trace identical to recorder-off — recorder events missing from the trace?")
	}
}

func TestWindowsPartitionTotals(t *testing.T) {
	ws, _, _, run := runWorkload(t, 11, 5*time.Millisecond, true)
	if len(ws) < 3 {
		t.Fatalf("only %d windows recorded; want several", len(ws))
	}
	var ok, failed, latCount int64
	for _, w := range ws {
		if v, has := w.Delta.Value(`load_requests_total{op="sample"}`); has {
			ok += int64(v)
		}
		if v, has := w.Delta.Value(`load_request_failures_total{op="sample"}`); has {
			failed += int64(v)
		}
		if h, has := w.Delta.Hist(`load_request_latency_nanoseconds{op="sample"}`); has {
			latCount += h.Count
		}
		if w.End <= w.Start {
			t.Fatalf("empty or inverted window [%v, %v)", w.Start, w.End)
		}
	}
	if ok != run.Completed() {
		t.Errorf("windowed request deltas sum to %d; run completed %d", ok, run.Completed())
	}
	if failed != run.Failed() {
		t.Errorf("windowed failure deltas sum to %d; run failed %d", failed, run.Failed())
	}
	if total := ok + failed; latCount != total {
		t.Errorf("windowed latency counts sum to %d; want every request (%d)", latCount, total)
	}
	if run.Completed()+run.Failed() != 400 {
		t.Errorf("completed %d + failed %d != 400 requests", run.Completed(), run.Failed())
	}
}

func TestOwnerLoadsTallyCompletedRequests(t *testing.T) {
	_, _, _, run := runWorkload(t, 13, 5*time.Millisecond, false)
	var tallied int64
	for _, c := range run.OwnerLoads() {
		tallied += c
	}
	if tallied != run.Completed() {
		t.Fatalf("owner tally %d != completed %d", tallied, run.Completed())
	}
}

func TestZipfPopularitySkew(t *testing.T) {
	k := sim.NewKernel(1)
	reg := obs.NewRegistry()
	counts := make(map[uint64]int)
	_, err := load.Start(k, load.Config{
		Clients:  100,
		Requests: 2000,
		MeanGap:  time.Microsecond,
		ZipfS:    1.2,
		Seed:     5,
		Registry: reg,
		Do: func(req load.Request) (int, error) {
			counts[req.Client()]++
			return -1, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Rank 0 must be the hottest client by a wide margin, and the head
	// must dominate: under Zipf(1.2) over 100 clients the top 10 ranks
	// carry >60% of the mass.
	head := 0
	for c := uint64(0); c < 10; c++ {
		head += counts[c]
	}
	if head < 1200 {
		t.Fatalf("top-10 clients got %d/2000 requests; Zipf skew missing", head)
	}
	if counts[0] < counts[50]*5 {
		t.Fatalf("rank 0 (%d) not dominating rank 50 (%d)", counts[0], counts[50])
	}
}

func TestOpenLoopBacklogVisible(t *testing.T) {
	// Arrivals every 100µs against a fixed 10ms service time: a closed
	// loop would throttle to the service rate; the open loop must show
	// the backlog in load_inflight.
	k := sim.NewKernel(1)
	reg := obs.NewRegistry()
	peak := int64(0)
	_, err := load.Start(k, load.Config{
		Clients:  4,
		Requests: 100,
		MeanGap:  100 * time.Microsecond,
		Seed:     9,
		Registry: reg,
		Do: func(req load.Request) (int, error) {
			if err := k.Sleep(10 * time.Millisecond); err != nil {
				return -1, err
			}
			return -1, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Every(time.Millisecond, time.Millisecond, "probe", func(time.Duration) {
		g := reg.Snapshot()
		if v, ok := g.Value("load_inflight"); ok && int64(v) > peak {
			peak = int64(v)
		}
	})
	// The probe ticker would outlive the workload; bound the run.
	k.Go("watchdog", func() {
		_ = k.Sleep(50 * time.Millisecond)
		k.Stop()
	})
	k.Run()
	if peak < 50 {
		t.Fatalf("peak inflight %d; open-loop backlog should reach ~99 with 100x service/arrival mismatch", peak)
	}
}
