package exp

import (
	"errors"
	"math/rand/v2"
	"time"

	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// scenario is the kernel-driven set-up E26, E27 and E28 share: a seeded
// ring, a discrete-event kernel, the named overlay built over a
// kernel-bound transport, its dht.DHT view from the first ring point
// (the caller), and — once scheduleChurn is called — an asynchronous
// churn schedule that never crashes that caller. Nothing runs until the
// caller calls k.Run.
//
// Everything derives from one seed s, and the layout is pinned by the
// determinism tests and the committed BENCH sections: ring (s, s+1),
// kernel s, transport stream s+2, churn (s+3, s+4), sampler process w
// (s+5+w, s+6).
type scenario struct {
	seed      uint64
	caller    ring.Point
	k         *sim.Kernel
	ov        overlay.Network
	d         *overlay.DHT
	churn     *churn.AsyncRun // nil until scheduleChurn
	buildWall time.Duration   // measured around the overlay build alone
}

// newScenario builds the scenario's overlay on a fresh kernel.
func newScenario(backend string, n int, model sim.Model, seed uint64) (*scenario, error) {
	o, _, err := seededOracle(seed, seed+1, n)
	if err != nil {
		return nil, err
	}
	points := o.Ring().Points()
	sc := &scenario{seed: seed, caller: points[0], k: sim.NewKernel(seed)}
	tr := sim.NewTransport(
		sim.WithKernel(sc.k),
		sim.WithModel(model),
		sim.WithStreamSeed(seed+2),
	)
	buildStart := time.Now()
	if sc.ov, err = overlays.Build(backend, overlays.Config{}, tr, points, nil); err != nil {
		return nil, err
	}
	sc.buildWall = time.Since(buildStart)
	sc.d, err = sc.ov.AsDHT(sc.caller)
	return sc, err
}

// scheduleChurn registers events join/crash events on the kernel with
// the given timing.
func (sc *scenario) scheduleChurn(events int, timing churn.AsyncConfig) error {
	driver, err := churn.NewDriver(sc.ov, rand.New(rand.NewPCG(sc.seed+3, sc.seed+4)), churn.Config{
		Events:    events,
		Protected: map[ring.Point]bool{sc.caller: true},
	})
	if err != nil {
		return err
	}
	sc.churn, err = driver.Schedule(sc.k, timing, nil)
	return err
}

// samplerTally is what a scenario's sampler processes saw while the
// churn schedule ran.
type samplerTally struct {
	ok         int // samples drawn
	estErrs    int // failed size estimates (sampler rebuilds)
	sampleErrs int // failed draws
	// nextErrs is how many of estErrs+sampleErrs were a next(p) step on
	// a peer that crashed under the walk (dht.ErrUnknownPeer); the rest
	// failed inside h.
	nextErrs int
}

// fail counts one failed estimate or draw in class and by cause.
func (tally *samplerTally) fail(class *int, err error) {
	*class++
	if errors.Is(err, dht.ErrUnknownPeer) {
		tally.nextErrs++
	}
}

// scenarioSamplers is the number of concurrent sampler processes E26
// and E27 run beside the churn stream.
const scenarioSamplers = 4

// goSamplers starts the scenario's sampler processes. They run
// concurrently in virtual time — clients do not take turns — until the
// churn schedule is done, each rebuilding its sampler (a fresh size
// estimate) per draw, the honest mode while the network size is
// changing. The tally is complete once k.Run returns.
func (sc *scenario) goSamplers() *samplerTally {
	tally := &samplerTally{}
	for w := 0; w < scenarioSamplers; w++ {
		rng := rand.New(rand.NewPCG(sc.seed+5+uint64(w), sc.seed+6))
		sc.k.Go("sampler", func() {
			for !sc.churn.Done() {
				s, err := core.New(sc.d, sc.d.Self(), rng, core.Config{})
				if err != nil {
					tally.fail(&tally.estErrs, err)
					if sc.k.Sleep(time.Millisecond) != nil {
						return
					}
					continue
				}
				if _, err := s.Sample(); err != nil {
					tally.fail(&tally.sampleErrs, err)
				} else {
					tally.ok++
				}
			}
		})
	}
	return tally
}
