package core_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/core"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// TestSamplerAtPieceBoundariesReproducesAnalyze ties the running
// sampler to the analyzer exactly (dhttest.PiecesMatchAnalyze) over the
// oracle, on the sliver ring and on n ∈ {2, 3, 4, 9, 24, 60} at three
// seeds and six parameter sets each. Every scripted trial runs on a
// plain sampler and on an exclusive one, which runs the oracle's own
// trial runner; the two must agree on the owner, the effort and the
// charge. dhttest.Pieces runs the same walk at the paper's parameters
// over the overlays on every transport: direct, virtual time, two wire
// transports and a three-daemon cluster.
func TestSamplerAtPieceBoundariesReproducesAnalyze(t *testing.T) {
	t.Parallel()
	// The sliver ring: at lambda = 100 and maxSteps = 2, behind a
	// 1000-unit arc come arcs of 190 and 5 units, so C_1 = 10 assigns
	// nothing and C_2 = horizon - 195 = 105 assigns D in [100, 105], a
	// piece that ends exactly at the horizon.
	sliver, err := ring.New([]ring.Point{0, 1000, 1190, 1195})
	if err != nil {
		t.Fatal(err)
	}
	sliverParams := core.Params{Lambda: 100, MaxSteps: 2}
	requirePieces(t, sliver, sliverParams)
	if got := oracleTrial(t, dht.NewOracle(sliver), sliverParams, ring.Sub(1000, 105)); got != 3 {
		t.Fatalf("sliver ring: D=105 is assigned to %d, want the piece at the horizon (peer 3)", got)
	}
	for _, n := range []int{2, 3, 4, 9, 24, 60} {
		for seed := uint64(0); seed < 3; seed++ {
			s := seed*977 + uint64(n)
			r, err := ring.Generate(rand.New(rand.NewPCG(s, s+1)), n)
			if err != nil {
				t.Fatal(err)
			}
			ideal, err := core.DeriveParams(float64(n), 1, 6)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []core.Params{
				ideal,
				{Lambda: ideal.Lambda, MaxSteps: 1},
				{Lambda: ideal.Lambda, MaxSteps: 3},
				{Lambda: ideal.Lambda / 5, MaxSteps: ideal.MaxSteps},
				{Lambda: 3 * ideal.Lambda, MaxSteps: 2},
				{Lambda: 1 << 63, MaxSteps: 4},
			} {
				requirePieces(t, r, p)
			}
		}
	}
}

// requirePieces runs the piece walk on r over the oracle.
func requirePieces(t *testing.T, r *ring.Ring, p core.Params) {
	t.Helper()
	o := dht.NewOracle(r)
	dhttest.PiecesMatchAnalyze(t, fmt.Sprintf("oracle n=%d %+v", r.Len(), p), r, p, func(s ring.Point) int {
		return oracleTrial(t, o, p, s)
	})
}

// oracleTrial runs one scripted trial from s on a plain sampler over o
// and on an exclusive one, which must agree on the owner, the effort
// and the charge, and returns the owner (-1 if the trial failed).
func oracleTrial(t *testing.T, o *dht.Oracle, p core.Params, s ring.Point) int {
	t.Helper()
	sample := func(exclusive bool) (int, core.Stats, simnet.Cost) {
		smp, err := core.NewWithParams(o, rand.New(dhttest.Starts(s)), p, core.Config{MaxTrials: 1})
		if err != nil {
			t.Fatal(err)
		}
		if exclusive {
			var own bool
			if smp, own = core.ExclusiveFrom(smp, dhttest.Starts(s)); !own {
				t.Fatal("an exclusive sampler over the oracle does not run the oracle's trials")
			}
		}
		before := o.Meter().Snapshot()
		peer, err := smp.Sample()
		cost := o.Meter().Snapshot().Sub(before)
		if errors.Is(err, core.ErrTrialsExhausted) {
			peer.Owner = -1
		} else if err != nil {
			t.Fatal(err)
		}
		return peer.Owner, smp.Stats(), cost
	}
	owner, effort, cost := sample(false)
	if o2, e2, c2 := sample(true); o2 != owner || e2 != effort || c2 != cost {
		t.Fatalf("n=%d %+v s=%v: exclusive sampler chose %d with %+v for %+v, plain sampler %d with %+v for %+v",
			o.Size(), p, s, o2, e2, c2, owner, effort, cost)
	}
	return owner
}
