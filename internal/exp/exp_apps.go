package exp

import (
	"math"

	"github.com/dht-sampling/randompeer/internal/agreement"
	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/collect"
	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/loadbalance"
	"github.com/dht-sampling/randompeer/internal/randgraph"
)

// runE11 runs the data-collection application: estimator bias and
// confidence-interval coverage, uniform versus naive.
func runE11(cfg RunConfig, t *Table) error {
	n := 1024
	polls, k := 40, 2000
	if cfg.Quick {
		n, polls, k = 256, 15, 500
	}
	o, rng, err := seededOracle(cfg.Seed^0xcc, uint64(n), n)
	if err != nil {
		return err
	}
	r := o.Ring()
	pop, err := collect.ArcCorrelated(r)
	if err != nil {
		return err
	}
	naiveExpect, err := collect.NaiveExpectedMean(r, pop)
	if err != nil {
		return err
	}
	type entry struct {
		name   string
		mk     func() (dht.Sampler, error)
		expect float64
	}
	entries := []entry{
		{
			name: "king-saia",
			mk: func() (dht.Sampler, error) {
				return core.New(o, o.PeerByIndex(0), rng, core.Config{})
			},
			expect: 1,
		},
		{
			name: "naive",
			mk: func() (dht.Sampler, error) {
				return baseline.NewNaive(o, rng), nil
			},
			expect: naiveExpect,
		},
	}
	for _, e := range entries {
		s, err := e.mk()
		if err != nil {
			return err
		}
		res, err := collect.PollMean(s, pop, k, 1.96)
		if err != nil {
			return err
		}
		coverage, err := collect.CoverageRate(e.mk, pop, polls, k, 1.96)
		if err != nil {
			return err
		}
		t.row(
			e.name, fmtF(res.Estimate), fmtF(res.Lo), fmtF(res.Hi),
			fmtF(coverage), fmtF(e.expect),
		)
	}
	t.AddNote("population: peer value = n * (its arc share); true mean exactly 1; n = %d", n)
	return nil
}

// runE12 runs the random-links application: giant component survival
// under adversarial deletion.
func runE12(cfg RunConfig, t *Table) error {
	n, k := 1000, 5
	if cfg.Quick {
		n, k = 300, 4
	}
	fracs := []float64{0.1, 0.3, 0.5}
	for _, frac := range fracs {
		o, rng, err := seededOracle(cfg.Seed^0xdd, uint64(n), n)
		if err != nil {
			return err
		}
		uni, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
		if err != nil {
			return err
		}
		gUni, err := randgraph.Build(uni, n, k)
		if err != nil {
			return err
		}
		gBias, err := randgraph.Build(baseline.NewNaive(o, rng), n, k)
		if err != nil {
			return err
		}
		uniMax, biasMax := gUni.MaxDegree(), gBias.MaxDegree()
		if _, err := gUni.DeleteAdversarial(frac); err != nil {
			return err
		}
		if _, err := gBias.DeleteAdversarial(frac); err != nil {
			return err
		}
		t.row(
			fmtF(frac),
			fmtF(gUni.LargestComponentFraction()),
			fmtF(gBias.LargestComponentFraction()),
			fmtI(uniMax), fmtI(biasMax),
		)
	}
	t.AddNote("n = %d, k = %d; adversary deletes highest-degree nodes (hubs)", n, k)
	return nil
}

// runE13 runs the load-balancing application: max load of sampled task
// assignment.
func runE13(cfg RunConfig, t *Table) error {
	ns := sweep(cfg.Quick, 256, 1024, 4096)
	for _, n := range ns {
		tasks := int(float64(n) * math.Log(float64(n)))
		o, rng, err := seededOracle(cfg.Seed^0xee, uint64(n), n)
		if err != nil {
			return err
		}
		virt, err := dht.NewVirtualOracle(rng, n, int(math.Log2(float64(n))))
		if err != nil {
			return err
		}
		uni, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
		if err != nil {
			return err
		}
		samplers := []dht.Sampler{
			uni,
			baseline.NewNaive(o, rng),
			baseline.NewVirtualNaive(virt, rng),
		}
		for _, s := range samplers {
			res, err := loadbalance.Assign(s, n, tasks)
			if err != nil {
				return err
			}
			t.row(
				fmtI(n), fmtI(tasks), s.Name(),
				fmtI(res.MaxLoad), fmtF(res.Imbalance), fmtI(res.Idle),
			)
		}
	}
	return nil
}

// runE14 runs the committee-election application: bad-committee rates
// under the longest-arc adversary.
func runE14(cfg RunConfig, t *Table) error {
	n := 1024
	committees := 400
	if cfg.Quick {
		n, committees = 256, 120
	}
	const size = 64
	for _, byz := range []float64{0.1, 0.2, 0.3} {
		o, rng, err := seededOracle(cfg.Seed^0xff, uint64(n), n)
		if err != nil {
			return err
		}
		bad, mass, err := agreement.LongestArcAttack(o.Ring(), byz)
		if err != nil {
			return err
		}
		isBad := func(owner int) bool { return bad[owner] }
		uni, err := core.New(o, o.PeerByIndex(0), rng, core.Config{})
		if err != nil {
			return err
		}
		uniRes, err := agreement.ElectCommittees(uni, isBad, size, committees, 0.5)
		if err != nil {
			return err
		}
		naiveRes, err := agreement.ElectCommittees(
			baseline.NewNaive(o, rng), isBad, size, committees, 0.5)
		if err != nil {
			return err
		}
		t.row(
			fmtF(byz), fmtF(mass),
			fmtF(uniRes.BadRate), fmtF(naiveRes.BadRate),
			fmtF(uniRes.MeanByzFrac), fmtF(naiveRes.MeanByzFrac),
		)
	}
	t.AddNote("n = %d, committee size %d, %d committees; adversary occupies longest arcs", n, size, committees)
	return nil
}
