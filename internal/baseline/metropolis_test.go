package baseline

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/stats"
)

func TestMetropolisWalkValidation(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 91, 16)
	g := NewUndirectedOracleGraph(o)
	if _, err := NewMetropolisWalk(o, g, o.PeerByIndex(0), 0, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("zero steps should fail")
	}
	w, err := NewMetropolisWalk(o, g, o.PeerByIndex(0), 5, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "mh-walk-5" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.Steps() != 5 {
		t.Errorf("Steps = %d", w.Steps())
	}
}

func TestMetropolisWalkApproachesUniform(t *testing.T) {
	t.Parallel()
	// A long MH walk on the Chord overlay must pass a chi-square
	// uniformity test — the degree correction removes the plain walk's
	// stationary bias.
	const n = 64
	o := newOracle(t, 93, n)
	g := NewUndirectedOracleGraph(o)
	steps := 6 * int(math.Log2(n))
	w, err := NewMetropolisWalk(o, g, o.PeerByIndex(0), steps, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	for i := 0; i < 120*n; i++ {
		p, err := w.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Owner]++
	}
	_, pvalue, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if pvalue < 1e-3 {
		t.Errorf("long MH walk rejected as non-uniform (p = %v)", pvalue)
	}
}

func TestMetropolisBeatsPlainWalkAtSameLength(t *testing.T) {
	t.Parallel()
	const n = 64
	o := newOracle(t, 95, n)
	g := NewUndirectedOracleGraph(o)
	steps := 4 * int(math.Log2(n))
	const samples = 70 * n
	mh, err := NewMetropolisWalk(o, g, o.PeerByIndex(0), steps, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewWalk(o, g, o.PeerByIndex(0), steps, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	tvd := func(sampleFn func() (int, error)) float64 {
		counts := make([]int64, n)
		for i := 0; i < samples; i++ {
			owner, err := sampleFn()
			if err != nil {
				t.Fatal(err)
			}
			counts[owner]++
		}
		v, err := stats.TotalVariationUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	mhTVD := tvd(func() (int, error) {
		p, err := mh.Sample()
		return p.Owner, err
	})
	plainTVD := tvd(func() (int, error) {
		p, err := plain.Sample()
		return p.Owner, err
	})
	if mhTVD >= plainTVD {
		t.Errorf("MH walk TVD %.4f should beat plain walk TVD %.4f at equal length", mhTVD, plainTVD)
	}
}

func TestMetropolisWalkCostCharged(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 97, 32)
	g := NewUndirectedOracleGraph(o)
	w, err := NewMetropolisWalk(o, g, o.PeerByIndex(0), 10, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	before := o.Meter().Snapshot()
	if _, err := w.Sample(); err != nil {
		t.Fatal(err)
	}
	cost := o.Meter().Snapshot().Sub(before)
	if cost.Calls != 20 {
		t.Errorf("10 MH steps charged %d calls, want 20 (2 per step)", cost.Calls)
	}
}

// TestUndirectedGraphNeighborOrderRepeats pins the adjacency as a pure
// function of the oracle: neighbour order decides which way a seeded
// walk steps, so two graphs over one oracle must list every peer's
// neighbours identically (and in ascending owner order).
func TestUndirectedGraphNeighborOrderRepeats(t *testing.T) {
	t.Parallel()
	o := newOracle(t, 97, 128)
	a, b := NewUndirectedOracleGraph(o), NewUndirectedOracleGraph(o)
	for i := 0; i < o.Size(); i++ {
		p := o.PeerByIndex(i)
		na, err := a.Neighbors(p)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Neighbors(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(na, nb) {
			t.Fatalf("peer %d: neighbour lists differ between two graphs over one oracle:\n a=%v\n b=%v", i, na, nb)
		}
		if !slices.IsSortedFunc(na, func(x, y dht.Peer) int { return x.Owner - y.Owner }) {
			t.Fatalf("peer %d: neighbours not in owner order: %v", i, na)
		}
	}
}
