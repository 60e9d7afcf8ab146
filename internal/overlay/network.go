package overlay

import (
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Network is one overlay seen from above its protocol package: the
// Router, the membership and ring half of the embedded Core, and the
// join and maintenance entry points. *chord.Network and
// *kademlia.Network implement it directly, so everything above them —
// the facade, the churn driver, the daemon, the experiments — holds
// this one handle and names a backend only where internal/overlays
// builds it.
type Network interface {
	Router

	// Members returns the ids of all live nodes in sorted order.
	Members() []ring.Point
	// NumAlive returns the number of live nodes.
	NumAlive() int
	// LiveSlot resolves an id to the slot of a live locally-hosted member.
	LiveSlot(id ring.Point) (uint32, bool)
	// Crash removes a node abruptly.
	Crash(id ring.Point) error
	// Successor asks node "of" for its ring successor (one RPC): the
	// paper's next(p).
	Successor(from, of ring.Point) (ring.Point, error)
	// Transport returns the transport the network is registered on.
	Transport() simnet.Transport
	// StorageStats returns the slot-arena occupancy.
	StorageStats() StorageStats
	// Served returns the walks and route tails this network ran for
	// callers.
	Served() ServedStats

	// Join adds a node through the existing local member via.
	Join(id, via ring.Point) error
	// JoinVia adds a locally hosted node through a bootstrap contact
	// that may live on another process.
	JoinVia(id, bootstrap ring.Point) error
	// Maintain runs the given number of synchronous maintenance rounds.
	// fingersPerRound applies to finger-table substrates (Chord) and is
	// ignored by the others.
	Maintain(rounds, fingersPerRound int)
	// MaintainNode runs one maintenance round for a single node,
	// ignoring transient errors (the node may crash mid-round). round is
	// a monotone sweep counter substrates may use to rotate refresh
	// targets. The asynchronous churn scheduler calls it from one kernel
	// process per member, so nodes repair concurrently in virtual time —
	// the deployment behaviour — instead of paying a sequential
	// whole-network sweep.
	MaintainNode(id ring.Point, round, fingersPerRound int)
	// VerifyRing reports whether the successor/predecessor structure is
	// globally consistent (nil when perfect) — the post-churn recovery
	// check.
	VerifyRing() error
	// AsDHT returns the network viewed from a live local caller as the
	// paper's abstract DHT.
	AsDHT(caller ring.Point) (*DHT, error)
}

// Maintain is the synchronous sweep both overlays' Maintain methods
// run: in each round every live node, in sorted order for determinism,
// runs MaintainNode with the round number.
func Maintain(n Network, rounds, fingersPerRound int) {
	for r := 0; r < rounds; r++ {
		for _, id := range n.Members() {
			n.MaintainNode(id, r, fingersPerRound)
		}
	}
}
