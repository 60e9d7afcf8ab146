package kademlia

import (
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/raceflag"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// resolveAllocBudget documents the per-lookup allocation cost of the h
// primitive on a fully populated overlay: 1 measured — the FIND_NODE
// request envelope, boxed once per lookup — with +2 headroom for
// scratch- and reply-pool refills after a GC. The shortlist, query
// waves and reply buffers are reused through free-lists, and the
// resolution reduces the shortlist in place; only the exported
// FindClosest materialises result slices.
const resolveAllocBudget = 3

func TestAllocBudgetResolveOwner(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(47, 47))
	r, err := ring.Generate(rng, 1024)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildStatic(Config{}, simnet.NewDirect(), r.Points())
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if _, _, err := net.ResolveOwner(r.At(0), ring.Point(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	})
	if got > resolveAllocBudget {
		t.Errorf("kademlia ResolveOwner allocates %.1f per lookup, budget %d", got, resolveAllocBudget)
	}
}

// TestAllocBudgetSuccessor pins the next(p) primitive, which every
// walk step of every sample pays: zero-size request, pooled reply.
func TestAllocBudgetSuccessor(t *testing.T) {
	skipIfRace(t)
	rng := rand.New(rand.NewPCG(48, 48))
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
		t.Errorf("kademlia Successor allocates %.1f per call, budget 1", got)
	}
}

// skipIfRace skips an allocation-budget test under the race detector,
// whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	raceflag.SkipBudgets(t)
}
