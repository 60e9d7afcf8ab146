package exp

import (
	"math/rand/v2"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/churn"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/stats"
)

// expE15 measures sampling behaviour while the Chord ring churns with
// its maintenance protocol running — the deployment regime the paper
// leaves as an assumption (a stable ring).
func expE15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Sampling under churn (stability assumption stress test)",
		Claim: "the algorithm degrades gracefully: errors stay rare and uniformity recovers after stabilization",
		Run: func(cfg RunConfig) (*Table, error) {
			t := &Table{
				ID:      "E15",
				Title:   "Sampling during churn at varying maintenance rates",
				Claim:   "sample failures rare; post-churn distribution passes chi-square",
				Columns: []string{"roundsPerEvent", "events", "sampleErrs", "samplesOK", "postChi2p", "ringRepaired"},
			}
			n := 128
			events := 60
			samplesDuring := 4
			postSamples := 40
			if cfg.Quick {
				n, events, samplesDuring, postSamples = 64, 30, 2, 25
			}
			for _, rounds := range []int{1, 2, 4} {
				rng := rand.New(rand.NewPCG(cfg.Seed^0x1515, uint64(rounds)))
				r, err := ring.Generate(rng, n)
				if err != nil {
					return nil, err
				}
				net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), r.Points())
				if err != nil {
					return nil, err
				}
				caller := r.At(0)
				d, err := net.AsDHT(caller)
				if err != nil {
					return nil, err
				}
				driver, err := churn.NewDriver(churn.Chord(net), rng, churn.Config{
					Events:         events,
					RoundsPerEvent: rounds,
					Protected:      map[ring.Point]bool{caller: true},
				})
				if err != nil {
					return nil, err
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
					return nil, err
				}
				// Settle, then verify uniformity is restored among survivors.
				net.Maintain(12, 16)
				repaired := net.VerifyRing() == nil
				d.RefreshOwners()
				s, err := core.New(d, d.Self(), rng, core.Config{})
				if err != nil {
					return nil, err
				}
				owners := d.Size()
				counts := make([]int64, owners)
				for i := 0; i < postSamples*owners; i++ {
					p, err := s.Sample()
					if err != nil {
						return nil, err
					}
					if p.Owner >= 0 && p.Owner < owners {
						counts[p.Owner]++
					}
				}
				_, pvalue, err := stats.ChiSquareUniform(counts)
				if err != nil {
					return nil, err
				}
				repairedStr := "yes"
				if !repaired {
					repairedStr = "no"
				}
				if err := t.AddRow(
					fmtI(rounds), fmtI(events), fmtI(errCount), fmtI(okCount),
					fmtF(pvalue), repairedStr,
				); err != nil {
					return nil, err
				}
			}
			t.AddNote("start n = %d; each event is a join or crash followed by the given maintenance rounds", n)
			return t, nil
		},
	}
}
