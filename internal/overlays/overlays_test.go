package overlays_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/dht-sampling/randompeer"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

func points(t *testing.T, n int) []ring.Point {
	t.Helper()
	r, err := ring.Generate(rand.New(rand.NewPCG(3, 4)), n)
	if err != nil {
		t.Fatal(err)
	}
	return r.Points()
}

// TestBuildErrorsReturnNilInterface guards the typed-nil trap: a failed
// build must hand back an interface that compares equal to nil, not a
// (*chord.Network)(nil) wrapped in one, so `if net != nil` is safe.
func TestBuildErrorsReturnNilInterface(t *testing.T) {
	pts := points(t, 16)
	net, err := overlays.Build("pastry", overlays.Config{}, simnet.NewDirect(), pts, nil)
	if !errors.Is(err, overlays.ErrUnknownBackend) {
		t.Errorf("unknown backend: err = %v, want ErrUnknownBackend", err)
	}
	if net != nil {
		t.Errorf("unknown backend: network = %#v, want a nil interface", net)
	}
	dup := append(slices.Clone(pts), pts[0])
	for _, name := range overlays.Names {
		for what, bad := range map[string][]ring.Point{"empty": nil, "duplicate": dup} {
			net, err := overlays.Build(name, overlays.Config{}, simnet.NewDirect(), bad, nil)
			if err == nil || errors.Is(err, overlays.ErrUnknownBackend) {
				t.Errorf("%s over %s points: err = %v, want a build error", name, what, err)
			}
			if net != nil {
				t.Errorf("%s over %s points: network = %#v, want a nil interface", name, what, net)
			}
		}
	}
}

// TestBuildPartition checks that owned selects exactly the points this
// process hosts while the whole membership stays visible.
func TestBuildPartition(t *testing.T) {
	pts := points(t, 32)
	local := make(map[ring.Point]bool)
	for i := 0; i < len(pts); i += 2 {
		local[pts[i]] = true
	}
	for _, name := range overlays.Names {
		t.Run(name, func(t *testing.T) {
			net, err := overlays.Build(name, overlays.Config{}, simnet.NewDirect(), pts, func(p ring.Point) bool { return local[p] })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(net.Members(), pts) {
				t.Errorf("membership is not the full point set")
			}
			for _, p := range pts {
				if _, hosted := net.LiveSlot(p); hosted != local[p] {
					t.Errorf("point %v hosted = %v, want %v", p, hosted, local[p])
				}
			}
			if got := net.StorageStats().Live; got != len(local) {
				t.Errorf("hosting %d nodes, want %d", got, len(local))
			}
			if _, err := net.AsDHT(pts[1]); err == nil {
				t.Error("AsDHT from a point hosted elsewhere succeeded")
			}
			if _, err := net.AsDHT(pts[0]); err != nil {
				t.Errorf("AsDHT from a hosted point: %v", err)
			}
		})
	}
}

// TestNamesMatchFacadeBackends ties the builder's names to the facade's
// Backend constants: every non-oracle backend the facade offers must be
// buildable by its String(), in the same order.
func TestNamesMatchFacadeBackends(t *testing.T) {
	var want []string
	for _, b := range randompeer.Backends() {
		if b != randompeer.OracleBackend {
			want = append(want, b.String())
		}
	}
	if !slices.Equal(overlays.Names, want) {
		t.Fatalf("overlays.Names = %v, facade overlay backends = %v", overlays.Names, want)
	}
}
