// Package overlays is the one place a backend name becomes a network:
// every consumer above the protocol packages — the facade, the daemon,
// the cluster client, the experiments and benchsnap — builds through
// Build and then holds only the overlay.Network handle.
package overlays

import (
	"errors"
	"fmt"
	"strings"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Names lists the backends Build accepts, in comparison-table order.
var Names = []string{"chord", "kademlia"}

// ErrUnknownBackend is returned by Build for a name not in Names.
var ErrUnknownBackend = errors.New("overlays: unknown backend")

// Config carries each backend's own configuration; Build reads the one
// its backend names.
type Config struct {
	Chord    chord.Config
	Kademlia kademlia.Config
}

// Build constructs the named backend's static overlay over tr: the full
// membership points defines every node's routing state and the nodes
// selected by owned (nil owns everything) are hosted on this process.
// On error the returned interface is nil, not a typed nil pointer.
func Build(backend string, cfg Config, tr simnet.Transport, points []ring.Point, owned func(ring.Point) bool) (overlay.Network, error) {
	switch backend {
	case "chord":
		net, err := chord.BuildStaticPartition(cfg.Chord, tr, points, owned)
		if err != nil {
			return nil, err
		}
		return net, nil
	case "kademlia":
		net, err := kademlia.BuildStaticPartition(cfg.Kademlia, tr, points, owned)
		if err != nil {
			return nil, err
		}
		return net, nil
	}
	return nil, fmt.Errorf("%w %q (want %s)", ErrUnknownBackend, backend, strings.Join(Names, ", "))
}
