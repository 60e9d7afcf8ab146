package exp

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// ScaleResult is one E27 scenario outcome: the overlay built at n,
// asynchronous churn run concurrent with sampler processes on the
// event kernel, and post-churn owner probes. Wall durations are
// measured, not simulated.
type ScaleResult struct {
	Backend      string
	Peers        int
	BuildWall    time.Duration
	RunWall      time.Duration
	KernelEvents uint64
	ChurnEvents  int
	StepErrors   int
	SamplesOK    int
	EstErrs      int
	SampleErrs   int
	OwnerMatches int
	OwnerProbes  int
	Virtual      time.Duration
}

// RunScaleScenario executes the E27 scenario once: build the backend
// ("chord" or "kademlia") at n over a kernel-bound transport with the
// given latency model, run `events` asynchronous churn events
// (exponential gaps of mean `gap`) concurrent in virtual time with
// sampler processes, then probe `probes` random keys through the
// overlay against the clockwise successor over the true membership.
// Maintenance sweeps are disabled: a global sweep visits every member,
// which is exactly the kind of O(n)-per-tick machinery a million-peer
// scenario cannot afford, so repair comes only from the local splices
// joins and crashes perform — the owner-match rate quantifies the
// residual damage. The E27 experiment table runs it.
func RunScaleScenario(backend string, n, events, probes int, gap time.Duration, model sim.Model, seed uint64) (*ScaleResult, error) {
	sc, err := newScenario(backend, n, model, seed)
	if err != nil {
		return nil, err
	}
	// MaintenanceInterval 0: global sweeps disabled (see above).
	if err := sc.scheduleChurn(events, churn.AsyncConfig{MeanInterval: gap}); err != nil {
		return nil, err
	}
	tally := sc.goSamplers()
	runStart := time.Now()
	sc.k.Run()
	res := &ScaleResult{
		Backend:      backend,
		Peers:        n,
		BuildWall:    sc.buildWall,
		RunWall:      time.Since(runStart),
		KernelEvents: sc.k.Processed(),
		ChurnEvents:  len(sc.churn.Events),
		StepErrors:   sc.churn.StepErrors,
		SamplesOK:    tally.ok,
		EstErrs:      tally.estErrs,
		SampleErrs:   tally.sampleErrs,
		OwnerProbes:  probes,
		Virtual:      sc.k.Now(),
	}
	// Post-churn correctness probe, no repair: resolve random keys
	// through the overlay and compare against the clockwise successor
	// over the true live membership.
	members := sc.ov.Members()
	prng := rand.New(rand.NewPCG(seed+99, seed+100))
	for i := 0; i < probes; i++ {
		x := ring.Point(prng.Uint64())
		p, err := sc.d.H(x)
		if err != nil {
			continue
		}
		j, found := slices.BinarySearch(members, x)
		if !found && j == len(members) {
			j = 0
		}
		if p.Point == members[j] {
			res.OwnerMatches++
		}
	}
	return res, nil
}

// OwnerMatchPct is the post-churn owner-probe match rate in percent.
func (r *ScaleResult) OwnerMatchPct() float64 {
	if r.OwnerProbes == 0 {
		return 0
	}
	return 100 * float64(r.OwnerMatches) / float64(r.OwnerProbes)
}

// StorageScaleResult is one E30 measurement: the overlay built at n on
// the flat index-based storage, with the steady-state heap cost and
// arena occupancy recorded around the build. BytesPerNode is the
// GC-settled heap growth attributable to the overlay (membership
// snapshot included, the pre-generated ring excluded), the number the
// 10M-peer capacity projection multiplies.
type StorageScaleResult struct {
	Backend      string
	Peers        int
	BuildWall    time.Duration
	HeapDelta    uint64 // GC-settled heap growth across the build, bytes
	HeapAfter    uint64 // total live heap after the build, bytes
	SysAfter     uint64 // bytes obtained from the OS (runtime.MemStats.Sys)
	Slots        int    // arena slots (one per node ever seen)
	FreeSlots    int
	ProbesOK     int // successor probes that matched the sorted ring
	Probes       int
	BytesPerNode float64
}

// RunStorageScale builds one backend at n over the Direct transport and
// measures what the flat storage actually costs: GC-settled heap bytes
// per node, build wall time on however many cores the machine has, and
// the slot-arena occupancy. A handful of successor probes check the
// built overlay against the sorted ring, so a layout bug cannot hide
// behind a fast build. Both the E30 experiment table and cmd/benchsnap's
// committed `mem` section are produced by this one function.
func RunStorageScale(backend string, n, probes int, seed uint64) (*StorageScaleResult, error) {
	o, _, err := seededOracle(seed, seed+1, n)
	if err != nil {
		return nil, err
	}
	points := o.Ring().Points()
	res := &StorageScaleResult{Backend: backend, Peers: n, Probes: probes}
	// Settle the heap so the delta measures the overlay, not garbage
	// left over from ring generation.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	net, err := overlays.Build(backend, overlays.Config{}, simnet.NewDirect(), points, nil)
	if err != nil {
		return nil, err
	}
	res.BuildWall = time.Since(start)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		res.HeapDelta = after.HeapAlloc - before.HeapAlloc
	}
	res.HeapAfter = after.HeapAlloc
	res.SysAfter = after.Sys
	res.BytesPerNode = float64(res.HeapDelta) / float64(n)
	st := net.StorageStats()
	res.Slots, res.FreeSlots = st.Slots, st.Free
	prng := rand.New(rand.NewPCG(seed+7, seed+8))
	for i := 0; i < probes; i++ {
		j := prng.IntN(n)
		succ, err := net.Successor(points[j], points[j])
		if err != nil {
			continue
		}
		if succ == points[(j+1)%n] {
			res.ProbesOK++
		}
	}
	return res, nil
}

// runE30 is the flat-storage scale experiment, E27's capacity
// counterpart: where E27 asks how much scenario (churn + sampling) the
// machinery sustains at large n, E30 asks how large n itself can get —
// it builds each backend above E27's sizes on the index-based slot
// arenas and records the measured bytes per node and build wall time
// that the 10M-peer projection in DESIGN.md extrapolates from.
func runE30(cfg RunConfig, t *Table) error {
	sizes, probes := map[string]int{"chord": 1 << 22, "kademlia": 1 << 19}, 200
	if cfg.Quick {
		sizes, probes = map[string]int{"chord": 1 << 15, "kademlia": 1 << 13}, 60
	}
	for _, name := range overlays.Names {
		n := sizes[name]
		seed := cfg.Seed ^ 0x30 ^ uint64(n)
		res, err := RunStorageScale(name, n, probes, seed)
		if err != nil {
			return err
		}
		t.row(
			res.Backend, fmtI(res.Peers),
			fmtF(res.BuildWall.Seconds()),
			fmtF(float64(res.Peers)/res.BuildWall.Seconds()),
			fmtF(res.BytesPerNode),
			fmtF(float64(res.HeapDelta)/(1<<20)),
			fmtI(res.Slots), fmtI(res.ProbesOK),
		)
		if res.ProbesOK != res.Probes {
			t.AddNote("%s n=%d: only %d/%d successor probes matched the sorted ring", res.Backend, res.Peers, res.ProbesOK, res.Probes)
		}
	}
	t.AddNote("bytes/node is the GC-settled heap growth across the build (membership snapshot included, the pre-generated ring excluded)")
	t.AddNote("kademlia carries its k-buckets in a shared region pool: ~log2(n) regions of 1+k+4 words per node, so its per-node cost grows with log n while chord's stays constant")
	t.AddNote("wall times are measured on this machine (%d cores); the committed BENCH trajectory records the same numbers via cmd/benchsnap's mem section", runtime.GOMAXPROCS(0))
	return nil
}

// runE27 is the scenario-scale experiment: each backend is built at the
// largest n the machinery comfortably sustains, then runs asynchronous
// churn concurrent — in virtual time — with sampler processes, under a
// latency model, on the discrete-event kernel (see RunScaleScenario).
// It exercises the whole scenario stack at once: bulk parallel
// construction, incremental membership snapshots under churn, and the
// kernel's run-to-completion event loop.
func runE27(cfg RunConfig, t *Table) error {
	model, err := latencyModel(cfg, t)
	if err != nil {
		return err
	}
	sizes, events, probes := map[string]int{"chord": 1 << 20, "kademlia": 1 << 17}, 48, 200
	gap := 25 * time.Millisecond
	if cfg.Quick {
		sizes, events, probes = map[string]int{"chord": 1 << 13, "kademlia": 1 << 12}, 12, 60
		gap = 10 * time.Millisecond
	}
	// The sweep points are too heavy to run concurrently (each
	// holds a full overlay); run them sequentially regardless of
	// the worker budget.
	for _, name := range overlays.Names {
		n := sizes[name]
		seed := cfg.Seed ^ 0x27 ^ uint64(n)
		res, err := RunScaleScenario(name, n, events, probes, gap, model, seed)
		if err != nil {
			return err
		}
		t.row(
			res.Backend, fmtI(res.Peers),
			fmtI(res.ChurnEvents), fmtI(res.StepErrors),
			fmtI(res.SamplesOK), fmtI(res.EstErrs), fmtI(res.SampleErrs),
			fmtF(res.OwnerMatchPct()),
			fmtF(ms(res.Virtual)),
		)
		t.AddNote("%s n=%d: built in %.2fs (parallel shards), kernel ran %d events in %.2fs wall (%.0f events/sec)",
			res.Backend, res.Peers, res.BuildWall.Seconds(), res.KernelEvents, res.RunWall.Seconds(),
			float64(res.KernelEvents)/res.RunWall.Seconds())
	}
	t.AddNote("maintenance sweeps disabled: repair is only the local splicing of joins/crashes; ownerMatch%% measures the residual damage a global sweep would have healed")
	t.AddNote("%d sampler processes draw concurrently with the churn stream in virtual time; wall times are measured, not simulated, and vary by machine", scenarioSamplers)
	return nil
}
