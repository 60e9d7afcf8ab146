package exp

import (
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// runE15 measures sampling behaviour while the Chord ring churns with
// its maintenance protocol running — the deployment regime the paper
// leaves as an assumption (a stable ring).
func runE15(cfg RunConfig, t *Table) error {
	n := 128
	events := 60
	samplesDuring := 4
	postSamples := 40
	if cfg.Quick {
		n, events, samplesDuring, postSamples = 64, 30, 2, 25
	}
	for _, rounds := range []int{1, 2, 4} {
		o, rng, err := seededOracle(cfg.Seed^0x1515, uint64(rounds), n)
		if err != nil {
			return err
		}
		net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), o.Ring().Points())
		if err != nil {
			return err
		}
		caller := o.Ring().At(0)
		d, err := net.AsDHT(caller)
		if err != nil {
			return err
		}
		driver, err := churn.NewDriver(churn.Chord(net), rng, churn.Config{
			Events:         events,
			RoundsPerEvent: rounds,
			Protected:      map[ring.Point]bool{caller: true},
		})
		if err != nil {
			return err
		}
		var errCount, okCount int
		if err := driver.Run(func(ev churn.Event) error {
			for i := 0; i < samplesDuring; i++ {
				s, err := core.New(d, d.Self(), rng, core.Config{})
				if err != nil {
					errCount++
					continue
				}
				if _, err := s.Sample(); err != nil {
					errCount++
				} else {
					okCount++
				}
			}
			return nil
		}); err != nil {
			return err
		}
		// Settle, then verify uniformity is restored among survivors.
		repaired, pvalue, err := settledChi2(net, d, rng, postSamples)
		if err != nil {
			return err
		}
		t.row(
			fmtI(rounds), fmtI(events), fmtI(errCount), fmtI(okCount),
			fmtF(pvalue), yesNo(repaired),
		)
	}
	t.AddNote("start n = %d; each event is a join or crash followed by the given maintenance rounds", n)
	return nil
}
