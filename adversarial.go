package randompeer

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"github.com/dht-sampling/randompeer/internal/adversary"
	"github.com/dht-sampling/randompeer/internal/baseline"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Adversarial surface of the facade: the fault plan attached to every
// transport-backed testbed, Byzantine attack installation, and the
// swap-based mitigation sampler. Everything is reproducible from seeds
// (the CLI's -drop-rate/-partition/-adversary flags wire through here).

// FaultPlan is the composable fault-injection plan a transport-backed
// testbed carries: a global drop rate, asymmetric per-link drops,
// message-class-targeted loss, and named network partitions with heal
// events. See the methods of internal/simnet.Faults.
type FaultPlan = simnet.Faults

// FaultPlan returns the testbed's fault plan. It is nil for the oracle
// backend, which models RPCs without a transport; the Chord and
// Kademlia backends always carry one (an empty plan costs one atomic
// load per RPC).
func (tb *Testbed) FaultPlan() *FaultPlan { return tb.faults }

// PartitionFraction installs a named partition cutting a seeded random
// fraction of peers (at least one, never the primary caller peer 0)
// off from the rest. Heal it with FaultPlan().Heal(name). It is the
// programmatic form of the CLI's -partition flag.
func (tb *Testbed) PartitionFraction(name string, fraction float64, seed uint64) error {
	if tb.faults == nil {
		return fmt.Errorf("randompeer: partitions require a transport-backed backend (chord or kademlia), not %s", tb.backend)
	}
	if !(fraction > 0 && fraction < 1) { // rejects NaN too
		return fmt.Errorf("randompeer: partition fraction %v outside (0,1)", fraction)
	}
	count := int(fraction * float64(tb.n))
	if count < 1 {
		count = 1
	}
	if count > tb.n-1 {
		count = tb.n - 1
	}
	// Seeded choice among peers 1..n-1 (peer 0 initiates lookups and
	// stays on the majority side).
	idx := make([]int, tb.n-1)
	for i := range idx {
		idx[i] = i + 1
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x510e527fade682d1))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	island := make([]simnet.NodeID, 0, count)
	for _, i := range idx[:count] {
		island = append(island, simnet.NodeID(tb.r.At(i)))
	}
	rest := make([]simnet.NodeID, 0, tb.n-count)
	chosen := make(map[int]bool, count)
	for _, i := range idx[:count] {
		chosen[i] = true
	}
	for i := 0; i < tb.n; i++ {
		if !chosen[i] {
			rest = append(rest, simnet.NodeID(tb.r.At(i)))
		}
	}
	tb.faults.Partition(name, island, rest)
	return nil
}

// Adversary is a compiled Byzantine attack installed on a testbed's
// transport. Remove disarms it; the selection and every steering
// decision are pure functions of the installation seed.
type Adversary struct {
	tb   *Testbed
	plan *adversary.Plan
}

// InstallAdversary compiles and arms a Byzantine attack on the
// testbed's transport. spec is "kind:fraction" — kind one of
// "route-bias", "eclipse" or "censor", fraction the subverted share of
// the membership in [0,1] (e.g. "route-bias:0.2"). seed roots node
// selection and per-call steering. exclude lists owner indices the
// threat model assumes honest (peer 0, the primary sampling vantage,
// is always excluded; pass any additional swap-sampler vantages).
//
// Eclipse attacks target the peer halfway around the ring from the
// caller (owner index n/2); read it back with Victim. Only the Chord
// and Kademlia backends can host an adversary — the oracle executes no
// RPCs to subvert.
func (tb *Testbed) InstallAdversary(spec string, seed uint64, exclude ...int) (*Adversary, error) {
	kind, fraction, err := parseAdversarySpec(spec)
	if err != nil {
		return nil, err
	}
	if tb.net == nil {
		return nil, fmt.Errorf("randompeer: adversary requires a transport-backed backend (chord or kademlia), not %s", tb.backend)
	}
	excludePoints := []Point{tb.r.At(0)}
	for _, i := range exclude {
		p, err := tb.Peer(i)
		if err != nil {
			return nil, err
		}
		excludePoints = append(excludePoints, p.Point)
	}
	cfg := adversary.Config{
		Kind:     kind,
		Fraction: fraction,
		Seed:     seed,
		Exclude:  excludePoints,
	}
	if kind == adversary.Eclipse {
		cfg.Victim = tb.r.At(tb.n / 2)
	}
	t := tb.net.Transport()
	it, ok := t.(simnet.Interceptable)
	if !ok {
		return nil, fmt.Errorf("randompeer: transport %T does not support Byzantine interception", t)
	}
	plan, err := adversary.New(tb.net.Members(), cfg)
	if err != nil {
		return nil, fmt.Errorf("randompeer: compiling adversary: %w", err)
	}
	lies, err := plan.Interceptor(tb.net)
	if err != nil {
		return nil, fmt.Errorf("randompeer: %w", err)
	}
	it.SetInterceptor(lies)
	return &Adversary{tb: tb, plan: plan}, nil
}

// parseAdversarySpec splits "kind:fraction".
func parseAdversarySpec(spec string) (adversary.Kind, float64, error) {
	name, frac, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("randompeer: adversary spec %q is not kind:fraction (e.g. route-bias:0.2)", spec)
	}
	kind, err := adversary.ParseKind(name)
	if err != nil {
		return 0, 0, err
	}
	f, err := strconv.ParseFloat(frac, 64)
	if err != nil || !(f >= 0 && f <= 1) { // rejects NaN too
		return 0, 0, fmt.Errorf("randompeer: adversary fraction %q outside [0,1]", frac)
	}
	return kind, f, nil
}

// AdversaryKinds returns the attack names InstallAdversary accepts.
func AdversaryKinds() []string { return adversary.Kinds() }

// Kind returns the attack's name ("route-bias", "eclipse", "censor").
func (a *Adversary) Kind() string { return a.plan.Kind().String() }

// NumNodes returns how many peers the attack subverted.
func (a *Adversary) NumNodes() int { return a.plan.NumNodes() }

// Contains reports whether the given peer is subverted.
func (a *Adversary) Contains(p Peer) bool { return a.plan.Contains(p.Point) }

// Victim returns the eclipse target (valid for eclipse attacks only).
func (a *Adversary) Victim() (Peer, error) {
	if a.plan.Kind() != adversary.Eclipse {
		return Peer{}, fmt.Errorf("randompeer: %s attack has no victim", a.Kind())
	}
	v := a.plan.Victim()
	return Peer{Point: v, Owner: a.tb.r.IndexOf(v)}, nil
}

// EclipseFraction measures the attack's capture of the victim's
// routing state: the fraction of the victim's successor-list and
// finger entries (Chord) or k-bucket contacts (Kademlia) pointing at
// subverted nodes. Run maintenance sweeps first to give the attack its
// window; near-zero without them.
func (a *Adversary) EclipseFraction() (float64, error) {
	return a.plan.Eclipse(a.tb.net)
}

// Remove disarms the attack, restoring honest RPC delivery.
func (a *Adversary) Remove() {
	if it, ok := a.tb.net.Transport().(simnet.Interceptable); ok {
		it.SetInterceptor(nil)
	}
}

// SwapSampler builds the PeerSwap-style mitigation sampler: every
// sample is resolved from two of the testbed's vantage peers
// ("swapping" audit duty across the pool) and accepted only when both
// agree on the owner. The audit is key-split — the second vantage
// resolves a key skewed by far less than the mean owner arc, so the
// owner is the same when routing is honest but a per-key forged reply
// names a different colluder for each key and gets rejected. Under
// Byzantine routing that subverts a lookup with probability q this
// drives the accepted bias from the naive sampler's q toward q²/c (c
// the coalition size) at the price of a non-zero failure rate from
// rejected audits. vantages selects the pool size (minimum and default
// 2); vantage peers are spread evenly around the ring starting at peer
// 0 and should be passed to InstallAdversary's exclude list — the
// threat model assumes the auditors themselves are honest.
func (tb *Testbed) SwapSampler(seed uint64, vantages int) (Sampler, error) {
	if vantages <= 0 {
		vantages = 2
	}
	if vantages < 2 || vantages > tb.n {
		return nil, fmt.Errorf("randompeer: swap sampler needs 2..%d vantages, got %d", tb.n, vantages)
	}
	views := make([]dht.DHT, 0, vantages)
	for _, i := range tb.SwapVantages(vantages) {
		if tb.net == nil {
			// The oracle has one global view; the audit degenerates to
			// agreement-with-itself, which keeps the sampler available
			// for apples-to-apples comparisons.
			views = append(views, tb.oracle)
			continue
		}
		v, err := tb.net.AsDHT(tb.r.At(i))
		if err != nil {
			return nil, fmt.Errorf("randompeer: swap vantage %d: %w", i, err)
		}
		views = append(views, v)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9b05688c2b3e6c1f))
	// Key-split skew of 1/64 mean arc keeps the honest false-rejection
	// rate below about 1%; the ownership cap of one mean arc trades an
	// e^-1 per-attempt honest rejection rate (under 2% of samples
	// exhaust their retries) for catching widest-interval lies and
	// truncating the naive sampler's arc-length bias. A deployment
	// would calibrate both from Estimate n; the testbed knows its size
	// exactly.
	meanArc := ^uint64(0) / uint64(tb.n)
	s, err := baseline.NewSwap(views, baseline.SwapConfig{
		Skew:         meanArc/64 + 1,
		MaxOwnerDist: meanArc,
		Bisect:       6,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("randompeer: building swap sampler: %w", err)
	}
	return s, nil
}

// SwapVantages returns the owner indices SwapSampler uses as its
// vantage pool of the given size: evenly spread around the ring
// starting at peer 0. Pass them to InstallAdversary's exclude list.
func (tb *Testbed) SwapVantages(vantages int) []int {
	if vantages < 2 {
		vantages = 2
	}
	if vantages > tb.n {
		vantages = tb.n
	}
	out := make([]int, vantages)
	for i := range out {
		out[i] = i * tb.n / vantages
	}
	return out
}
