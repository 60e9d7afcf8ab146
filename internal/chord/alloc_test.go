package chord

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// lookupAllocBudget documents the per-lookup allocation cost of the
// routed h primitive on a stabilized ring: 1 — the request envelope,
// boxed once per lookup and reused across every hop (replies are
// pooled and the candidate scratch is a fixed-size array). The +1
// headroom absorbs response-pool refills after a GC.
const lookupAllocBudget = 2

func TestAllocBudgetLookup(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(45, 45))
	r, err := ring.Generate(rng, 1024)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if _, err := net.Lookup(r.At(0), ring.Point(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	})
	if got > lookupAllocBudget {
		t.Errorf("chord Lookup allocates %.1f per lookup, budget %d", got, lookupAllocBudget)
	}
}

// TestAllocBudgetSuccessor pins the next(p) primitive: the request is
// a zero-size value (boxing is free) and the reply is pooled, so the
// budget is zero steady state with headroom for pool refills.
func TestAllocBudgetSuccessor(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(46, 46))
	r, err := ring.Generate(rng, 1024)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	cur := r.At(0)
	got := testing.AllocsPerRun(500, func() {
		var err error
		if cur, err = net.Successor(r.At(0), cur); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("chord Successor allocates %.1f per call, budget 1", got)
	}
}

// skipIfRace skips an allocation-budget test under the race detector,
// whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	raceflag.SkipBudgets(t)
}
