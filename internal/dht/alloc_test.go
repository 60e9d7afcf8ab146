package dht

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"

	"github.com/dht-sampling/randompeer/internal/ring"
)

// Allocation budgets for the oracle hot path. These are regression
// gates for the PR 4 performance pass: H resolves by a hand-rolled
// binary search and Next recovers the peer's ring index from its Owner
// field, so neither touches the heap. The budgets are asserted as
// constants — any change that re-introduces a per-lookup or per-step
// allocation fails tier-1.
const (
	oracleHAllocBudget    = 0
	oracleNextAllocBudget = 0
)

func TestAllocBudgetOracleH(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(40, 40))
	o, err := GenerateOracle(rng, 16384)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := o.H(ring.Point(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	})
	if got > oracleHAllocBudget {
		t.Errorf("Oracle.H allocates %.1f per call, budget %d", got, oracleHAllocBudget)
	}
}

func TestAllocBudgetOracleNext(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(41, 41))
	o, err := GenerateOracle(rng, 16384)
	if err != nil {
		t.Fatal(err)
	}
	p := o.PeerByIndex(0)
	got := testing.AllocsPerRun(200, func() {
		var err error
		if p, err = o.Next(p); err != nil {
			t.Fatal(err)
		}
	})
	if got > oracleNextAllocBudget {
		t.Errorf("Oracle.Next allocates %.1f per call, budget %d", got, oracleNextAllocBudget)
	}
}

// TestAllocBudgetOracleNextVirtual pins the virtual-nodes fallback: an
// Owner field that is not the ring index forces the binary-search path,
// which must still be allocation-free.
func TestAllocBudgetOracleNextVirtual(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(42, 42))
	o, err := NewVirtualOracle(rng, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := o.PeerByIndex(0)
	got := testing.AllocsPerRun(200, func() {
		var err error
		if p, err = o.Next(p); err != nil {
			t.Fatal(err)
		}
	})
	if got > oracleNextAllocBudget {
		t.Errorf("Oracle.Next (virtual) allocates %.1f per call, budget %d", got, oracleNextAllocBudget)
	}
}

// skipIfRace skips an allocation-budget test under the race detector,
// whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	raceflag.SkipBudgets(t)
}
