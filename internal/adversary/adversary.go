// Package adversary implements Byzantine attacks against the Chord and
// Kademlia overlays, for measuring what the King–Saia sampler actually
// guarantees when a fraction of the overlay is hostile. An attack Plan
// selects a deterministic, seeded set of colluding nodes out of the
// membership and compiles to a simnet.Interceptor (the Byzantine hook
// every in-process transport carries); the overlay packages export the
// reply-forging primitives (chord.ByzantineReply, kademlia.
// ByzantineReply), while this package owns the policy: which calls each
// attack subverts, and toward whom.
//
// Three attacks are implemented:
//
//   - RouteBias: every subverted node answers routing and ring-pointer
//     queries with lies that terminate at the coalition's magnet node,
//     so any lookup that touches one adversarial hop resolves there.
//     With adversarial fraction f and lookups of length l, a naive h(x)
//     sampler lands on the magnet with probability about 1-(1-f)^l —
//     the bias E29 measures as total-variation distance from uniform
//     (concentration maximizes TV; see pick for why spreading lies
//     over the coalition would understate the attack).
//   - Eclipse: the same lies, but served only to one victim, including
//     poisoned successor-list and FIND_NODE replies during the victim's
//     maintenance — the coalition gradually captures the victim's
//     fingers or k-buckets. Plan.Eclipse measures the captured fraction
//     of the victim's routing state.
//   - Censor: subverted nodes fail every sampling-relevant RPC
//     (routing, lookup and pointer queries) with in-flight drops,
//     raising the sampler's failure rate without biasing what survives.
//
// Every decision an interceptor makes is a pure hash of the call's own
// arguments and the plan's seed — no shared rng, no mutable state — so
// simulations stay bit-identical at any GOMAXPROCS and under async
// churn.
package adversary

import (
	"fmt"
	"slices"
	"sort"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Kind selects an attack.
type Kind int

const (
	// RouteBias steers every routed lookup that touches an adversarial
	// node toward the coalition.
	RouteBias Kind = iota
	// Eclipse serves lies only to one victim, capturing its routing
	// state during maintenance.
	Eclipse
	// Censor drops sampling-relevant RPCs at adversarial nodes.
	Censor
)

// String returns the attack's CLI spelling.
func (k Kind) String() string {
	switch k {
	case RouteBias:
		return "route-bias"
	case Eclipse:
		return "eclipse"
	case Censor:
		return "censor"
	}
	return fmt.Sprintf("adversary.Kind(%d)", int(k))
}

// Kinds lists every attack in CLI spelling.
func Kinds() []string {
	return []string{RouteBias.String(), Eclipse.String(), Censor.String()}
}

// ParseKind parses a CLI attack name.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{RouteBias, Eclipse, Censor} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("adversary: unknown attack %q (want one of %v)", s, Kinds())
}

// Config describes one attack instance.
type Config struct {
	// Kind selects the attack.
	Kind Kind
	// Fraction of the membership subverted, in [0,1]. The count is
	// floor(Fraction*len(members)); selection is a seeded shuffle, so
	// equal (members, Fraction, Seed) always subvert the same nodes.
	Fraction float64
	// Seed roots node selection and every per-call steering decision.
	Seed uint64
	// Victim is the Eclipse target (required for Eclipse, ignored
	// otherwise).
	Victim ring.Point
	// Exclude lists nodes never subverted — typically the sampler's
	// own vantage peers, which the threat model assumes honest.
	Exclude []ring.Point
}

// Plan is a compiled attack: the subverted node set plus the
// deterministic steering policy. A Plan is immutable and safe for
// concurrent use.
type Plan struct {
	kind   Kind
	seed   uint64
	victim ring.Point
	nodes  map[ring.Point]bool
	coll   []ring.Point // sorted colluder list indexed by steering hashes
}

// New compiles an attack plan over the given membership.
func New(members []ring.Point, cfg Config) (*Plan, error) {
	if !(cfg.Fraction >= 0 && cfg.Fraction <= 1) { // rejects NaN too
		return nil, fmt.Errorf("adversary: fraction %v outside [0,1]", cfg.Fraction)
	}
	if cfg.Kind == Eclipse && !slices.Contains(members, cfg.Victim) {
		return nil, fmt.Errorf("adversary: eclipse victim %d not in membership", cfg.Victim)
	}
	excluded := make(map[ring.Point]bool, len(cfg.Exclude)+1)
	for _, p := range cfg.Exclude {
		excluded[p] = true
	}
	if cfg.Kind == Eclipse {
		excluded[cfg.Victim] = true
	}
	eligible := make([]ring.Point, 0, len(members))
	for _, m := range members {
		if !excluded[m] {
			eligible = append(eligible, m)
		}
	}
	// Selection: sort for input-order independence, then a seeded
	// Fisher–Yates pass driven by the same splitmix stream the
	// steering hashes use.
	sort.Slice(eligible, func(i, j int) bool { return eligible[i] < eligible[j] })
	h := cfg.Seed
	for i := len(eligible) - 1; i > 0; i-- {
		h = splitmix64(h)
		j := int(h % uint64(i+1))
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	count := int(cfg.Fraction * float64(len(members)))
	if count > len(eligible) {
		count = len(eligible)
	}
	chosen := eligible[:count]
	p := &Plan{
		kind:   cfg.Kind,
		seed:   cfg.Seed,
		victim: cfg.Victim,
		nodes:  make(map[ring.Point]bool, count),
		coll:   append([]ring.Point(nil), chosen...),
	}
	sort.Slice(p.coll, func(i, j int) bool { return p.coll[i] < p.coll[j] })
	for _, c := range chosen {
		p.nodes[c] = true
	}
	return p, nil
}

// Kind returns the plan's attack kind.
func (p *Plan) Kind() Kind { return p.kind }

// NumNodes returns how many nodes the plan subverts.
func (p *Plan) NumNodes() int { return len(p.coll) }

// Nodes returns the subverted nodes in ascending point order.
func (p *Plan) Nodes() []ring.Point { return append([]ring.Point(nil), p.coll...) }

// Contains reports whether q is subverted.
func (p *Plan) Contains(q ring.Point) bool { return p.nodes[q] }

// Victim returns the Eclipse target (zero for other kinds).
func (p *Plan) Victim() ring.Point { return p.victim }

// lies reports whether the plan subverts this particular call: the
// destination must be adversarial, and an Eclipse plan only lies to
// its victim.
func (p *Plan) lies(from, to simnet.NodeID) bool {
	if !p.nodes[ring.Point(to)] {
		return false
	}
	if p.kind == Eclipse {
		return ring.Point(from) == p.victim
	}
	return true
}

// pick returns the steering function for forged chord replies from the
// lying node "to": pick(key, i) is the attacker's i-th choice for that
// key. Each attack steers toward its own objective:
//
//   - RouteBias lies are key- and liar-independent — a sybil magnet,
//     pick(_, i) = the coalition's i-th magnet node, a pure function of
//     (seed, i) alone. Concentrating every lie on the same colluder
//     maximizes the distortion of the sampled distribution (spreading
//     lies over the coalition dilutes the per-node mass and *lowers*
//     the TV distance even as the colluder hit-rate rises), and
//     key-independent lies are invisible to key-splitting cross-audits;
//     only a claim-plausibility check catches them (DESIGN.md's
//     threat-model section quantifies the spread-vs-magnet tradeoff).
//   - Eclipse lies spread over the whole coalition, keyed per
//     (key, liar): capture is counted over the victim's *distinct*
//     routing-state slots, so the attacker fills different fingers and
//     successor entries with different colluders.
func (p *Plan) pick(to simnet.NodeID) func(ring.Point, int) ring.Point {
	if p.kind == Eclipse {
		return func(key ring.Point, i int) ring.Point {
			base := splitmix64(p.seed ^ uint64(key)*0x9e3779b97f4a7c15 ^ uint64(to))
			return p.coll[(base+uint64(i))%uint64(len(p.coll))]
		}
	}
	base := splitmix64(p.seed)
	return func(_ ring.Point, i int) ring.Point {
		return p.coll[(base+uint64(i))%uint64(len(p.coll))]
	}
}

// Interceptor compiles the plan for net's protocol — the lies are
// protocol messages, so this is the one place above the overlays that
// tells them apart. Install it with the transport's SetInterceptor.
func (p *Plan) Interceptor(net overlay.Network) (simnet.Interceptor, error) {
	switch net.(type) {
	case *chord.Network:
		return p.ChordInterceptor(), nil
	case *kademlia.Network:
		return p.KademliaInterceptor(), nil
	}
	return nil, fmt.Errorf("adversary: no interceptor for overlay %T", net)
}

// ChordInterceptor compiles the plan for a chord overlay.
func (p *Plan) ChordInterceptor() simnet.Interceptor {
	return func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
		if len(p.coll) == 0 || !p.lies(from, to) {
			return resp, err
		}
		if p.kind == Censor {
			if chord.IsRoutingRPC(msg) || overlay.IsPointerRPC(msg) {
				return nil, simnet.ErrDropped
			}
			return resp, err
		}
		if forged, ferr, ok := chord.ByzantineReply(msg, resp, err, p.pick(to)); ok {
			return forged, ferr
		}
		return resp, err
	}
}

// KademliaInterceptor compiles the plan for a kademlia overlay.
func (p *Plan) KademliaInterceptor() simnet.Interceptor {
	return func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
		if len(p.coll) == 0 || !p.lies(from, to) {
			return resp, err
		}
		if p.kind == Censor {
			if kademlia.IsLookupRPC(msg) || overlay.IsPointerRPC(msg) {
				return nil, simnet.ErrDropped
			}
			return resp, err
		}
		// Kademlia lies take the whole coalition: the overlay package
		// picks the XOR-closest / widest-interval members itself.
		if forged, ferr, ok := kademlia.ByzantineReply(ring.Point(to), msg, resp, err, p.coll); ok {
			return forged, ferr
		}
		return resp, err
	}
}

// PoisonedFraction returns the fraction of entries that point at
// subverted nodes — the eclipse success metric over any routing-state
// snapshot. Empty input counts as zero.
func (p *Plan) PoisonedFraction(entries []ring.Point) float64 {
	if len(entries) == 0 {
		return 0
	}
	bad := 0
	for _, e := range entries {
		if p.nodes[e] {
			bad++
		}
	}
	return float64(bad) / float64(len(entries))
}

// Eclipse measures the captured fraction of the victim's routing state
// on any overlay: its outgoing edges (chord's successor list plus
// fingers, kademlia's k-bucket contacts) that point at subverted nodes.
func (p *Plan) Eclipse(net overlay.Network) (float64, error) {
	s, ok := net.LiveSlot(p.victim)
	if !ok {
		return 0, fmt.Errorf("adversary: eclipse victim %v: %w", p.victim, overlay.ErrNodeNotFound)
	}
	return p.PoisonedFraction(net.Neighbors(s)), nil
}

// splitmix64 is the finalizer-style mixer behind every deterministic
// decision in this package.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
