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
)

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
// committed numbers behind the "10M-peer rings in a few GB" claim;
// cmd/benchdiff holds bytes/node to 0.1% and slots and probes exact.
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
// internal/exp runner the E30 experiment table uses, at sizes[backend]
// peers (0 leaves a backend out), one backend at a time so the first
// overlay is collected before the second builds.
func measureMem(sizes map[string]int, seed uint64) ([]MemBench, error) {
	var out []MemBench
	for _, name := range overlays.Names {
		n := sizes[name]
		if n <= 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchsnap: mem — building %s at n=%d (flat storage)...\n", name, n)
		res, err := exp.RunStorageScale(name, n, 200, seed)
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
			name, n, res.BuildWall.Seconds(), mb.PeersPerSec, mb.BytesPerNode, mb.HeapMB, mb.SysMB, mb.ProbesOK, mb.Probes)
		// The overlay became unreachable when RunStorageScale returned;
		// collect it before the next backend builds, so measurements do
		// not stack heaps.
		runtime.GC()
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
