// Package churn drives node arrival and departure against a live DHT
// overlay with its maintenance protocol running, supporting the
// experiments that measure sampling correctness while the overlay is
// being repaired (the paper assumes a stable ring; churn quantifies the
// degradation when that assumption is relaxed).
//
// The driver is generic over the Overlay interface (overlay.Network),
// so the same schedules run against Chord and Kademlia. Two execution
// modes are provided: Run executes events in synchronous lockstep (each
// event followed by maintenance rounds), and Schedule registers the
// events on a discrete-event kernel (internal/sim), where arrivals,
// departures and periodic maintenance execute as timed events
// concurrent — in virtual time — with whatever sampler processes the
// caller spawns.
package churn

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
)

// Overlay is what the churn driver drives: the one handle both real
// overlays implement directly (live membership, join/crash, synchronous
// and per-node maintenance, the post-churn ring check).
type Overlay = overlay.Network

// ErrEmptyOverlay is returned when a driver is built over an overlay
// with no live nodes.
var ErrEmptyOverlay = errors.New("churn: overlay has no live nodes")

// Chord returns a Chord network as the driver's Overlay.
func Chord(net *chord.Network) Overlay { return net }

// Kademlia returns a Kademlia network as the driver's Overlay.
func Kademlia(net *kademlia.Network) Overlay { return net }

// Config parameterizes a churn schedule.
type Config struct {
	// Events is the number of churn events to execute.
	Events int
	// JoinFraction is the probability an event is a join; otherwise a
	// uniformly chosen node crashes. Default 0.5.
	JoinFraction float64
	// RoundsPerEvent is the number of synchronous maintenance rounds run
	// after each event (lower is harsher churn). Default 2. In
	// asynchronous mode maintenance is periodic instead; see AsyncConfig.
	RoundsPerEvent int
	// FingersPerRound is the number of fingers each node fixes per
	// maintenance round on finger-table substrates. Default 8.
	FingersPerRound int
	// MinSize floors the network size: crashes are converted to joins at
	// the floor. Default 2.
	MinSize int
	// Protected nodes are never crashed (experiments keep their sampling
	// caller alive).
	Protected map[ring.Point]bool
}

func (c Config) withDefaults() Config {
	if c.JoinFraction <= 0 {
		c.JoinFraction = 0.5
	}
	if c.RoundsPerEvent <= 0 {
		c.RoundsPerEvent = 2
	}
	if c.FingersPerRound <= 0 {
		c.FingersPerRound = 8
	}
	if c.MinSize < 2 {
		c.MinSize = 2
	}
	return c
}

// Event describes one executed churn event.
type Event struct {
	Index int
	Join  bool
	Node  ring.Point
}

// Driver executes a churn schedule.
type Driver struct {
	ov  Overlay
	rng *rand.Rand
	cfg Config
}

// NewDriver builds a churn driver over a live overlay.
func NewDriver(ov Overlay, rng *rand.Rand, cfg Config) (*Driver, error) {
	if ov.NumAlive() == 0 {
		return nil, ErrEmptyOverlay
	}
	if cfg.Events < 0 {
		return nil, fmt.Errorf("churn: events must be >= 0, got %d", cfg.Events)
	}
	return &Driver{ov: ov, rng: rng, cfg: cfg.withDefaults()}, nil
}

// Run executes the schedule synchronously. After each event (and its
// maintenance rounds) the onEvent hook runs, if non-nil; a hook error
// aborts the schedule.
func (d *Driver) Run(onEvent func(ev Event) error) error {
	for i := 0; i < d.cfg.Events; i++ {
		ev, err := d.step(i)
		if err != nil {
			return fmt.Errorf("churn: event %d: %w", i, err)
		}
		d.ov.Maintain(d.cfg.RoundsPerEvent, d.cfg.FingersPerRound)
		if onEvent != nil {
			if err := onEvent(ev); err != nil {
				return fmt.Errorf("churn: hook after event %d: %w", i, err)
			}
		}
	}
	return nil
}

// step executes one join or crash.
func (d *Driver) step(index int) (Event, error) {
	members := d.ov.Members()
	join := d.rng.Float64() < d.cfg.JoinFraction || len(members) <= d.cfg.MinSize
	if join {
		id := ring.Point(d.rng.Uint64())
		via := members[d.rng.IntN(len(members))]
		if err := d.ov.Join(id, via); err != nil {
			return Event{}, fmt.Errorf("join %v via %v: %w", id, via, err)
		}
		return Event{Index: index, Join: true, Node: id}, nil
	}
	// Crash a uniformly random unprotected member. Count the live
	// protected nodes first (the Protected map is tiny; members is
	// sorted), then rejection-sample member indices until an
	// unprotected one comes up — uniform over the unprotected set,
	// expected O(1) draws, and no filtered copy of a possibly
	// million-entry membership per event.
	protectedLive := 0
	for p, on := range d.cfg.Protected {
		if !on {
			continue
		}
		if _, ok := slices.BinarySearch(members, p); ok {
			protectedLive++
		}
	}
	if len(members)-protectedLive <= 0 {
		return Event{Index: index, Join: true}, nil // nothing crashable; no-op
	}
	var victim ring.Point
	for {
		victim = members[d.rng.IntN(len(members))]
		if !d.cfg.Protected[victim] {
			break
		}
	}
	if err := d.ov.Crash(victim); err != nil {
		return Event{}, fmt.Errorf("crash %v: %w", victim, err)
	}
	return Event{Index: index, Join: false, Node: victim}, nil
}
