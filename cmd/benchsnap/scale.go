package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/exp"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// KernelBench records the discrete-event kernel's raw scheduling cost
// across its three dispatch paths (see BenchmarkKernelEventLoop).
// PR3RefNsPerEvent is the pre-rewrite kernel's measured per-event cost
// on the reference box (container/heap plus two channel handoffs for
// every event); SpeedupVsPR3 relates the proc fast path to it.
type KernelBench struct {
	ProcNsPerEvent        float64 `json:"proc_ns_per_event"`
	ProcEventsPerSec      float64 `json:"proc_events_per_sec"`
	CallbackNsPerEvent    float64 `json:"callback_ns_per_event"`
	CallbackEventsPerSec  float64 `json:"callback_events_per_sec"`
	InterleavedNsPerEvent float64 `json:"interleaved_ns_per_event"`
	PR3RefNsPerEvent      float64 `json:"pr3_ref_ns_per_event"`
	SpeedupVsPR3          float64 `json:"speedup_vs_pr3"`
}

// BuildBench records bulk overlay construction at scale for one
// backend.
type BuildBench struct {
	Backend     string  `json:"backend"`
	Peers       int     `json:"peers"`
	WallMS      float64 `json:"wall_ms"`
	PeersPerSec float64 `json:"peers_per_sec"`
}

// ChurnBench records the asynchronous churn driver's sustained event
// rate: exponential-gap joins/crashes plus periodic parallel
// maintenance sweeps on a live Chord ring over the event kernel.
type ChurnBench struct {
	Peers         int     `json:"peers"`
	Events        int     `json:"events"`
	WallMS        float64 `json:"wall_ms"`
	EventsPerSec  float64 `json:"events_per_sec"`
	KernelEvents  uint64  `json:"kernel_events"`
	KernelPerSec  float64 `json:"kernel_events_per_sec"`
	MaintInterval string  `json:"maintenance_interval"`
}

// E27Scale records the million-peer scenario run: construction plus an
// asynchronous churn schedule with concurrent samplers (experiment E27
// at full scale). Survived means the schedule executed, samplers kept
// sampling, and the post-churn owner probes resolved.
type E27Scale struct {
	Backend       string  `json:"backend"`
	Peers         int     `json:"peers"`
	BuildWallMS   float64 `json:"build_wall_ms"`
	ChurnEvents   int     `json:"churn_events"`
	StepErrors    int     `json:"step_errors"`
	SamplesOK     int     `json:"samples_ok"`
	SampleErrs    int     `json:"sample_errs"`
	OwnerMatchPct float64 `json:"owner_match_pct"`
	VirtualMS     float64 `json:"virtual_ms"`
	RunWallMS     float64 `json:"run_wall_ms"`
	Survived      bool    `json:"survived"`
}

// MemBench records the flat-storage capacity measurement for one
// backend: the overlay built at n with the GC-settled heap cost per
// node, the build wall time, and the bytes the process obtained from
// the OS (the "peak RSS" the capacity plan budgets for). These are the
// committed numbers behind the "10M-peer rings in a few GB" claim, and
// cmd/benchdiff gates bytes/node and build time higher-is-worse.
type MemBench struct {
	Backend      string  `json:"backend"`
	Peers        int     `json:"peers"`
	BuildWallMS  float64 `json:"build_wall_ms"`
	PeersPerSec  float64 `json:"peers_per_sec"`
	BytesPerNode float64 `json:"bytes_per_node"`
	HeapMB       float64 `json:"heap_mb"`
	SysMB        float64 `json:"sys_mb"`
	Slots        int     `json:"slots"`
	ProbesOK     int     `json:"probes_ok"`
	Probes       int     `json:"probes"`
}

// measureMem runs the E30 storage-scale measurement (bulk build +
// GC-settled heap accounting + successor probes) through the same
// internal/exp runner the E30 experiment table uses, one backend at a
// time so the first overlay is collected before the second builds.
func measureMem(chordN, kadN int, seed uint64) ([]MemBench, error) {
	var out []MemBench
	for _, sc := range []struct {
		name string
		n    int
	}{{"chord", chordN}, {"kademlia", kadN}} {
		if sc.n <= 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchsnap: mem — building %s at n=%d (flat storage)...\n", sc.name, sc.n)
		res, err := exp.RunStorageScale(sc.name, sc.n, 200, seed)
		if err != nil {
			return nil, err
		}
		mb := MemBench{
			Backend: res.Backend, Peers: res.Peers,
			BuildWallMS:  float64(res.BuildWall.Microseconds()) / 1000,
			PeersPerSec:  float64(res.Peers) / res.BuildWall.Seconds(),
			BytesPerNode: res.BytesPerNode,
			HeapMB:       float64(res.HeapDelta) / (1 << 20),
			SysMB:        float64(res.SysAfter) / (1 << 20),
			Slots:        res.Slots,
			ProbesOK:     res.ProbesOK,
			Probes:       res.Probes,
		}
		out = append(out, mb)
		fmt.Fprintf(os.Stderr, "benchsnap: mem %s n=%d: built in %.2fs (%.0f peers/sec), %.0f bytes/node, heap %.0f MB, sys %.0f MB, probes %d/%d\n",
			sc.name, sc.n, res.BuildWall.Seconds(), mb.PeersPerSec, mb.BytesPerNode, mb.HeapMB, mb.SysMB, mb.ProbesOK, mb.Probes)
		// The overlay became unreachable when RunStorageScale returned;
		// collect it before the next backend builds, so measurements do
		// not stack heaps.
		runtime.GC()
	}
	return out, nil
}

// measureKernel times the three kernel dispatch paths.
func measureKernel(pr3Ref float64) *KernelBench {
	fmt.Fprintln(os.Stderr, "benchsnap: measuring kernel event-loop paths...")
	timeRun := func(events int, setup func(k *sim.Kernel, events int)) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			k := sim.NewKernel(1)
			setup(k, events)
			start := time.Now()
			k.Run()
			ns := float64(time.Since(start).Nanoseconds()) / float64(events)
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	proc := timeRun(5_000_000, func(k *sim.Kernel, events int) {
		k.Go("sleeper", func() {
			for i := 0; i < events; i++ {
				if k.Sleep(time.Microsecond) != nil {
					return
				}
			}
		})
	})
	callback := timeRun(2_000_000, func(k *sim.Kernel, events int) {
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < events {
				k.Post(time.Microsecond, "tick", tick)
			}
		}
		k.Post(time.Microsecond, "tick", tick)
	})
	interleaved := timeRun(400_000, func(k *sim.Kernel, events int) {
		for p := 0; p < 2; p++ {
			k.Go("sleeper", func() {
				for i := 0; i < (events+1)/2; i++ {
					if k.Sleep(time.Microsecond) != nil {
						return
					}
				}
			})
		}
	})
	kb := &KernelBench{
		ProcNsPerEvent:        proc,
		ProcEventsPerSec:      1e9 / proc,
		CallbackNsPerEvent:    callback,
		CallbackEventsPerSec:  1e9 / callback,
		InterleavedNsPerEvent: interleaved,
		PR3RefNsPerEvent:      pr3Ref,
		SpeedupVsPR3:          pr3Ref / proc,
	}
	fmt.Fprintf(os.Stderr, "benchsnap: kernel proc %.1f ns/event (%.1fM/s), callback %.1f ns/event, interleaved %.0f ns/event (%.1fx vs PR-3 ref %.0f ns)\n",
		proc, kb.ProcEventsPerSec/1e6, callback, interleaved, kb.SpeedupVsPR3, pr3Ref)
	return kb
}

// measureBuilds times bulk construction per backend.
func measureBuilds(chordN, kadN int, seed uint64) ([]BuildBench, error) {
	var out []BuildBench
	for _, sc := range []struct {
		name string
		n    int
	}{{"chord", chordN}, {"kademlia", kadN}} {
		fmt.Fprintf(os.Stderr, "benchsnap: building %s at n=%d...\n", sc.name, sc.n)
		rng := rand.New(rand.NewPCG(seed, seed+uint64(sc.n)))
		r, err := ring.Generate(rng, sc.n)
		if err != nil {
			return nil, err
		}
		points := r.Points()
		runtime.GC()
		start := time.Now()
		if _, err := overlays.Build(sc.name, overlays.Config{}, simnet.NewDirect(), points, nil); err != nil {
			return nil, err
		}
		wall := time.Since(start)
		out = append(out, BuildBench{
			Backend: sc.name, Peers: sc.n,
			WallMS:      float64(wall.Microseconds()) / 1000,
			PeersPerSec: float64(sc.n) / wall.Seconds(),
		})
		fmt.Fprintf(os.Stderr, "benchsnap: %s n=%d built in %.2fs (%.0f peers/sec, %d workers)\n",
			sc.name, sc.n, wall.Seconds(), float64(sc.n)/wall.Seconds(), runtime.GOMAXPROCS(0))
	}
	return out, nil
}

// measureChurn times a full asynchronous churn schedule with periodic
// parallel maintenance sweeps.
func measureChurn(peers, events int, seed uint64) (*ChurnBench, error) {
	fmt.Fprintf(os.Stderr, "benchsnap: driving %d async churn events over a %d-peer chord ring...\n", events, peers)
	const maint = 10 * time.Millisecond
	rng := rand.New(rand.NewPCG(seed, seed+9))
	r, err := ring.Generate(rng, peers)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(seed)
	tr := sim.NewTransport(
		sim.WithKernel(k),
		sim.WithModel(sim.Constant{RTT: time.Millisecond}),
		sim.WithStreamSeed(seed+2),
	)
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		return nil, err
	}
	driver, err := churn.NewDriver(churn.Chord(net), rand.New(rand.NewPCG(seed+3, seed+4)), churn.Config{Events: events})
	if err != nil {
		return nil, err
	}
	if _, err := driver.Schedule(k, churn.AsyncConfig{
		MeanInterval:        time.Millisecond,
		MaintenanceInterval: maint,
	}, nil); err != nil {
		return nil, err
	}
	start := time.Now()
	k.Run()
	wall := time.Since(start)
	cb := &ChurnBench{
		Peers: peers, Events: events,
		WallMS:        float64(wall.Microseconds()) / 1000,
		EventsPerSec:  float64(events) / wall.Seconds(),
		KernelEvents:  k.Processed(),
		KernelPerSec:  float64(k.Processed()) / wall.Seconds(),
		MaintInterval: maint.String(),
	}
	fmt.Fprintf(os.Stderr, "benchsnap: churn %.0f events/sec (%d kernel events, %.0f/sec)\n",
		cb.EventsPerSec, cb.KernelEvents, cb.KernelPerSec)
	return cb, nil
}

// measureE27 runs the full-scale E27 scenario through the same
// internal/exp runner the E27 experiment table uses (one scenario
// definition, two consumers), and maps the result into the committed
// snapshot record.
func measureE27(n, events, probes int, seed uint64) (*E27Scale, error) {
	fmt.Fprintf(os.Stderr, "benchsnap: E27 scenario — chord at n=%d under async churn...\n", n)
	res, err := exp.RunScaleScenario("chord", n, events, probes,
		25*time.Millisecond, sim.Constant{RTT: time.Millisecond}, seed)
	if err != nil {
		return nil, err
	}
	e := &E27Scale{
		Backend: res.Backend, Peers: res.Peers,
		BuildWallMS:   float64(res.BuildWall.Microseconds()) / 1000,
		ChurnEvents:   res.ChurnEvents,
		StepErrors:    res.StepErrors,
		SamplesOK:     res.SamplesOK,
		SampleErrs:    res.SampleErrs + res.EstErrs,
		OwnerMatchPct: res.OwnerMatchPct(),
		VirtualMS:     float64(res.Virtual) / float64(time.Millisecond),
		RunWallMS:     float64(res.RunWall.Microseconds()) / 1000,
		Survived:      res.Survived(),
	}
	fmt.Fprintf(os.Stderr, "benchsnap: E27 chord n=%d: build %.1fs, %d churn events, %d samples ok / %d errs, owner match %.1f%%, survived=%v\n",
		n, res.BuildWall.Seconds(), e.ChurnEvents, e.SamplesOK, e.SampleErrs, e.OwnerMatchPct, e.Survived)
	return e, nil
}
