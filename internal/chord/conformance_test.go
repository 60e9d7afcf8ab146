package chord_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/chord"
	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// TestChordConformance runs the shared DHT conformance suite against
// the real Chord network, proving the sampler-facing contract holds on
// the full protocol, not only on the oracle.
func TestChordConformance(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "chord", func(points []ring.Point) (dht.DHT, error) {
		net, err := chord.BuildStatic(chord.Config{}, simnet.NewDirect(), points)
		if err != nil {
			return nil, err
		}
		return net.AsDHT(points[0])
	})
}

// TestChordConformanceSimTransport re-runs the suite over the
// virtual-clock transport: simulated time must not change any
// sampler-facing behaviour, only add latency accounting.
func TestChordConformanceSimTransport(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "chord-sim", func(points []ring.Point) (dht.DHT, error) {
		tr := sim.NewTransport(sim.WithModel(sim.Constant{RTT: time.Millisecond}))
		net, err := chord.BuildStatic(chord.Config{}, tr, points)
		if err != nil {
			return nil, err
		}
		return net.AsDHT(points[0])
	})
}

// TestChordConformanceWireTransport re-runs the suite over real TCP
// sockets: the ring is partitioned across two wire transports (the
// caller's node on one, every other node on the other), so every
// routing hop and successor chase is an HTTP RPC over loopback. The
// sampler-facing contract — and the metered costs the suite checks —
// must be identical to the in-process transports.
func TestChordConformanceWireTransport(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "chord-wire", func(points []ring.Point) (dht.DHT, error) {
		server := wire.NewTransport(wire.WithJitterSeed(1))
		if err := server.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		t.Cleanup(func() { server.Close() })
		client := wire.NewTransport(wire.WithJitterSeed(2))
		if err := client.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		t.Cleanup(func() { client.Close() })
		local := points[0]
		for _, p := range points {
			if p == local {
				server.SetRoute(simnet.NodeID(p), client.Addr())
			} else {
				client.SetRoute(simnet.NodeID(p), server.Addr())
			}
		}
		if _, err := chord.BuildStaticPartition(chord.Config{}, server, points,
			func(p ring.Point) bool { return p != local }); err != nil {
			return nil, err
		}
		net, err := chord.BuildStaticPartition(chord.Config{}, client, points,
			func(p ring.Point) bool { return p == local })
		if err != nil {
			return nil, err
		}
		return net.AsDHT(local)
	})
}

// TestChordWireJoinVia joins a node hosted on a fresh process (its own
// transport and network) into a ring living entirely behind another
// transport: the bootstrap lookup, successor-list fetch and notify all
// travel over loopback sockets, and the joiner can then resolve
// correct owners through its spliced successor.
func TestChordWireJoinVia(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(77, 78))
	r, err := ring.Generate(rng, 16)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	server := wire.NewTransport()
	if err := server.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := chord.BuildStatic(chord.Config{}, server, points); err != nil {
		t.Fatal(err)
	}
	client := wire.NewTransport()
	if err := client.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, p := range points {
		client.SetRoute(simnet.NodeID(p), server.Addr())
	}
	joinNet := chord.NewNetwork(chord.Config{}, client)
	joiner := ring.Point(points[3] + 5) // between two existing points
	if err := joinNet.JoinVia(joiner, points[0]); err != nil {
		t.Fatalf("JoinVia over wire: %v", err)
	}
	// The joiner resolves owners among the original members through its
	// freshly spliced successor chain.
	for trial := 0; trial < 32; trial++ {
		key := ring.Point(rng.Uint64())
		got, err := joinNet.Lookup(joiner, key)
		if err != nil {
			t.Fatalf("lookup from joiner: %v", err)
		}
		want := r.At(r.Successor(key))
		if ring.Distance(key, joiner) < ring.Distance(key, want) {
			want = joiner // the joiner itself now owns this arc
		}
		if got != want {
			t.Fatalf("lookup(%v) = %v, want %v", key, got, want)
		}
	}
}
