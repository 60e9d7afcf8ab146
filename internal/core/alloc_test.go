package core

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"

	"github.com/dht-sampling/randompeer/internal/dht"
)

// sampleAllocBudget is the regression gate the PR 4 acceptance
// criteria pin: at most 2 allocations per uniform sample on the oracle
// path. The measured value is 0 — the rejection loop keeps every
// per-trial quantity in locals and the oracle backend is allocation-
// free — but the budget leaves headroom so an incidental runtime-level
// allocation does not flake the gate.
const sampleAllocBudget = 2

func TestAllocBudgetSampleOracle(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(43, 43))
	o, err := dht.GenerateOracle(rng, 16384)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Sample(); err != nil {
			t.Fatal(err)
		}
	})
	if got > sampleAllocBudget {
		t.Errorf("Sampler.Sample over the oracle allocates %.1f per sample, budget %d", got, sampleAllocBudget)
	}
}

// TestAllocBudgetSampleExclusiveFork pins the batch engine's per-block
// path: an exclusive fork samples without the RNG mutex and must stay
// within the same budget.
func TestAllocBudgetSampleExclusiveFork(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(44, 44))
	o, err := dht.GenerateOracle(rng, 16384)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(o, o.PeerByIndex(0), rng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.ForkExclusive(99)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := f.Sample(); err != nil {
			t.Fatal(err)
		}
	})
	if got > sampleAllocBudget {
		t.Errorf("exclusive fork allocates %.1f per sample, budget %d", got, sampleAllocBudget)
	}
}

// skipIfRace skips an allocation-budget test under the race detector,
// whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	raceflag.SkipBudgets(t)
}
