package adversary_test

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dht-sampling/randompeer/internal/adversary"
	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Attack-effectiveness tests: each attack must measurably move the
// statistic it targets (owner bias, routing-state capture, failure
// rate) on both overlays, and the deterministic plan machinery must be
// a pure function of its inputs.

const testN = 64

func buildChord(t *testing.T, seed uint64) (*chord.Network, *ring.Ring, simnet.Transport) {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed+1)), testN)
	if err != nil {
		t.Fatal(err)
	}
	tr := simnet.NewDirect()
	net, err := chord.BuildStatic(chord.Config{}, tr, r.Points())
	if err != nil {
		t.Fatal(err)
	}
	return net, r, tr
}

func buildKademlia(t *testing.T, seed uint64) (*kademlia.Network, *ring.Ring, simnet.Transport) {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed+1)), testN)
	if err != nil {
		t.Fatal(err)
	}
	tr := simnet.NewDirect()
	net, err := kademlia.BuildStatic(kademlia.Config{}, tr, r.Points())
	if err != nil {
		t.Fatal(err)
	}
	return net, r, tr
}

func mustPlan(t *testing.T, members []ring.Point, cfg adversary.Config) *adversary.Plan {
	t.Helper()
	p, err := adversary.New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustInterceptor compiles the plan through the by-handle entry point,
// so the eclipse tests also check that it picks net's own protocol.
func mustInterceptor(t *testing.T, p *adversary.Plan, net overlay.Network) simnet.Interceptor {
	t.Helper()
	lies, err := p.Interceptor(net)
	if err != nil {
		t.Fatal(err)
	}
	return lies
}

func TestInterceptorUnknownOverlay(t *testing.T) {
	t.Parallel()
	net, _, _ := buildChord(t, 1)
	plan := mustPlan(t, net.Members(), adversary.Config{Kind: adversary.Censor, Fraction: 0.25, Seed: 1})
	// Not one of the protocols the plan can lie in.
	if lies, err := plan.Interceptor(struct{ overlay.Network }{net}); err == nil || lies != nil {
		t.Fatalf("Interceptor over an unknown overlay type = (%v, %v), want an error", lies != nil, err)
	}
}

func TestPlanSelectionDeterministic(t *testing.T) {
	t.Parallel()
	r, err := ring.Generate(rand.New(rand.NewPCG(9, 10)), testN)
	if err != nil {
		t.Fatal(err)
	}
	members := r.Points()
	cfg := adversary.Config{Kind: adversary.RouteBias, Fraction: 0.25, Seed: 77, Exclude: []ring.Point{r.At(0)}}
	a := mustPlan(t, members, cfg)
	if got, want := a.NumNodes(), testN/4; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if a.Contains(r.At(0)) {
		t.Error("excluded node was subverted")
	}
	// Same inputs, same coalition — regardless of member order.
	shuffled := append([]ring.Point(nil), members...)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b := mustPlan(t, shuffled, cfg)
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) {
		t.Fatalf("coalition sizes differ: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("coalition differs at %d: %d vs %d", i, an[i], bn[i])
		}
	}
	// Different seed, different coalition (overwhelmingly likely).
	cfg.Seed = 78
	c := mustPlan(t, members, cfg)
	same := true
	cn := c.Nodes()
	for i := range an {
		if an[i] != cn[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds chose identical coalitions (suspicious)")
	}
}

func TestPlanErrors(t *testing.T) {
	t.Parallel()
	r, err := ring.Generate(rand.New(rand.NewPCG(3, 4)), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adversary.New(r.Points(), adversary.Config{Fraction: 1.5}); err == nil {
		t.Error("fraction > 1 must fail")
	}
	if _, err := adversary.New(r.Points(), adversary.Config{Fraction: -0.1}); err == nil {
		t.Error("negative fraction must fail")
	}
	if _, err := adversary.New(r.Points(), adversary.Config{Fraction: math.NaN()}); err == nil {
		t.Error("NaN fraction must fail")
	}
	if _, err := adversary.New(r.Points(), adversary.Config{Kind: adversary.Eclipse, Fraction: 0.5, Victim: 12345}); err == nil {
		t.Error("eclipse with non-member victim must fail")
	}
	if _, err := adversary.ParseKind("nonsense"); err == nil {
		t.Error("unknown kind must fail to parse")
	}
	for _, name := range adversary.Kinds() {
		if _, err := adversary.ParseKind(name); err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
		}
	}
}

// tallyChord resolves keys from the caller's vantage and returns
// (colluder hits, failures) out of total.
func tallyChord(t *testing.T, net *chord.Network, caller ring.Point, plan *adversary.Plan, seed uint64, total int) (hits, fails int) {
	t.Helper()
	d, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	for i := 0; i < total; i++ {
		p, err := d.H(ring.Point(rng.Uint64()))
		if err != nil {
			fails++
			continue
		}
		if plan.Contains(p.Point) {
			hits++
		}
	}
	return hits, fails
}

func tallyKademlia(t *testing.T, net *kademlia.Network, caller ring.Point, plan *adversary.Plan, seed uint64, total int) (hits, fails int) {
	t.Helper()
	d, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	for i := 0; i < total; i++ {
		p, err := d.H(ring.Point(rng.Uint64()))
		if err != nil {
			fails++
			continue
		}
		if plan.Contains(p.Point) {
			hits++
		}
	}
	return hits, fails
}

func TestRouteBiasChord(t *testing.T) {
	t.Parallel()
	net, r, tr := buildChord(t, 100)
	caller := r.At(0)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.RouteBias, Fraction: 0.2, Seed: 5, Exclude: []ring.Point{caller},
	})
	const total = 400
	honest, hFails := tallyChord(t, net, caller, plan, 11, total)
	tr.(simnet.Interceptable).SetInterceptor(plan.ChordInterceptor())
	biased, bFails := tallyChord(t, net, caller, plan, 11, total)
	if hFails != 0 {
		t.Fatalf("honest lookups failed: %d", hFails)
	}
	honestFrac := float64(honest) / float64(total)
	biasedFrac := float64(biased) / float64(total-bFails)
	t.Logf("chord route-bias: honest colluder rate %.3f, biased %.3f (%d fails)", honestFrac, biasedFrac, bFails)
	// Honest rate tracks the coalition's share of the ring (~0.2); one
	// adversarial hop anywhere in an O(log n) route captures the lookup,
	// so the biased rate must leap well past that.
	if biasedFrac < honestFrac+0.25 {
		t.Errorf("route bias ineffective: honest %.3f vs biased %.3f", honestFrac, biasedFrac)
	}
	// Disarming restores honest resolution exactly.
	tr.(simnet.Interceptable).SetInterceptor(nil)
	again, _ := tallyChord(t, net, caller, plan, 11, total)
	if again != honest {
		t.Errorf("after disarm: %d colluder hits, want the honest %d", again, honest)
	}
}

func TestRouteBiasKademlia(t *testing.T) {
	t.Parallel()
	net, r, tr := buildKademlia(t, 200)
	caller := r.At(0)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.RouteBias, Fraction: 0.2, Seed: 6, Exclude: []ring.Point{caller},
	})
	const total = 400
	honest, hFails := tallyKademlia(t, net, caller, plan, 12, total)
	tr.(simnet.Interceptable).SetInterceptor(plan.KademliaInterceptor())
	biased, bFails := tallyKademlia(t, net, caller, plan, 12, total)
	if hFails != 0 {
		t.Fatalf("honest lookups failed: %d", hFails)
	}
	honestFrac := float64(honest) / float64(total)
	var biasedFrac float64
	if ok := total - bFails; ok > 0 {
		biasedFrac = float64(biased) / float64(ok)
	}
	t.Logf("kademlia route-bias: honest colluder rate %.3f, biased %.3f (%d fails)", honestFrac, biasedFrac, bFails)
	// Kademlia's owner resolution is two-phase: the iterative lookup
	// the attack poisons freely, then a ring-pointer verification that
	// only an adversarial verification hop can subvert. The attack wins
	// exactly the lookups whose ring-closest seen node colludes, so the
	// lift is bounded near the coalition's density — a structurally
	// smaller bias than chord's recursive routing concedes, and the
	// E29 experiments measure exactly this gap.
	if biasedFrac < honestFrac+0.08 {
		t.Errorf("route bias ineffective: honest %.3f vs biased %.3f", honestFrac, biasedFrac)
	}
	tr.(simnet.Interceptable).SetInterceptor(nil)
	again, _ := tallyKademlia(t, net, caller, plan, 12, total)
	if again != honest {
		t.Errorf("after disarm: %d colluder hits, want the honest %d", again, honest)
	}
}

func TestEclipseCaptureChord(t *testing.T) {
	t.Parallel()
	net, r, tr := buildChord(t, 300)
	victim := r.At(testN / 2)
	bystander := r.At(testN / 4)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.Eclipse, Fraction: 0.25, Seed: 7, Victim: victim,
	})
	if plan.Contains(victim) {
		t.Fatal("victim must never be subverted")
	}
	before, err := plan.Eclipse(net)
	if err != nil {
		t.Fatal(err)
	}
	tr.(simnet.Interceptable).SetInterceptor(mustInterceptor(t, plan, net))
	net.Maintain(8, 8)
	after, err := plan.Eclipse(net)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chord eclipse: victim capture %.3f -> %.3f", before, after)
	if after <= before {
		t.Errorf("eclipse did not grow victim capture: %.3f -> %.3f", before, after)
	}
	if after < 0.4 {
		t.Errorf("eclipse capture %.3f below expected saturation", after)
	}
	// Lies are served only to the victim: a bystander's routing state
	// keeps roughly its natural coalition share.
	nd, err := net.Node(bystander)
	if err != nil {
		t.Fatal(err)
	}
	if f := plan.PoisonedFraction(nd.Neighbors()); f > 0.5 {
		t.Errorf("bystander poisoned fraction %.3f — eclipse leaked beyond the victim", f)
	}
}

func TestEclipseCaptureKademlia(t *testing.T) {
	t.Parallel()
	net, r, tr := buildKademlia(t, 400)
	victim := r.At(testN / 2)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.Eclipse, Fraction: 0.25, Seed: 8, Victim: victim,
	})
	before, err := plan.Eclipse(net)
	if err != nil {
		t.Fatal(err)
	}
	tr.(simnet.Interceptable).SetInterceptor(mustInterceptor(t, plan, net))
	// Full k-buckets resist insertion (Kademlia keeps old live
	// contacts), so the attack needs eviction pressure: crash a slice
	// of honest bystanders, then let maintenance refill the freed
	// slots from poisoned FIND_NODE replies.
	crashed := 0
	for i := 1; i < testN && crashed < testN/4; i++ {
		id := r.At(i)
		if id == victim || plan.Contains(id) {
			continue
		}
		if err := net.Crash(id); err != nil {
			t.Fatal(err)
		}
		crashed++
	}
	net.Maintain(8, 0)
	after, err := plan.Eclipse(net)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("kademlia eclipse: victim capture %.3f -> %.3f", before, after)
	if after <= before {
		t.Errorf("eclipse did not grow victim capture: %.3f -> %.3f", before, after)
	}
}

func TestCensorRaisesFailureRate(t *testing.T) {
	t.Parallel()
	net, r, tr := buildChord(t, 500)
	caller := r.At(0)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.Censor, Fraction: 0.3, Seed: 9, Exclude: []ring.Point{caller},
	})
	const total = 200
	_, hFails := tallyChord(t, net, caller, plan, 13, total)
	if hFails != 0 {
		t.Fatalf("honest lookups failed: %d", hFails)
	}
	tr.(simnet.Interceptable).SetInterceptor(plan.ChordInterceptor())
	d, err := net.AsDHT(caller)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(13, 13^0xabcdef))
	fails, dropped := 0, 0
	for i := 0; i < total; i++ {
		if _, err := d.H(ring.Point(rng.Uint64())); err != nil {
			fails++
			if errors.Is(err, simnet.ErrDropped) {
				dropped++
			}
		}
	}
	t.Logf("chord censor: %d/%d lookups failed (%d as drops)", fails, total, dropped)
	if fails == 0 {
		t.Error("censorship raised no failures")
	}
	if dropped == 0 {
		t.Error("censored failures never classified as drops")
	}
}

func TestEmptyCoalitionIsHarmless(t *testing.T) {
	t.Parallel()
	net, r, tr := buildChord(t, 600)
	caller := r.At(0)
	plan := mustPlan(t, net.Members(), adversary.Config{
		Kind: adversary.RouteBias, Fraction: 0, Seed: 10,
	})
	if plan.NumNodes() != 0 {
		t.Fatalf("fraction 0 subverted %d nodes", plan.NumNodes())
	}
	tr.(simnet.Interceptable).SetInterceptor(plan.ChordInterceptor())
	_, fails := tallyChord(t, net, caller, plan, 14, 50)
	if fails != 0 {
		t.Errorf("empty coalition broke %d lookups", fails)
	}
}
