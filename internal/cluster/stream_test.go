package cluster

import (
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/stats"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// TestClusterSampleStream runs the stream tests of internal/stats over
// what a daemon's /v1/sample answers, for every backend: Good's serial
// test over one request's consecutive draws, and the collision test
// over two requests with different seeds at two daemons. The membership
// is partitioned across the daemons and the client, so the stream is
// made of walks other processes served and, on chord, of lookups whose
// tails they routed; neither may correlate one sampler's consecutive
// draws. The threshold is the engine stream tests' α = 1e-6, with the
// seeds fixed, so a failure is a defect and not a rare draw.
func TestClusterSampleStream(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	const alpha = 1e-6
	const n, draws = 12, 1500 // ≈ 10.4 draws expected in each of the n² pair cells
	r, err := ring.Generate(rand.New(rand.NewPCG(83, 89)), n)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	rank := make(map[uint64]int, n)
	for i, p := range points {
		rank[uint64(p)] = i
	}
	c := startCluster(t, 3, wire.WithJitterSeed(31))
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if _, err := c.Provision(backend, points); err != nil {
				t.Fatalf("provisioning: %v", err)
			}
			served := func() (walks, routes float64) {
				exps, err := c.ScrapeAll()
				if err != nil {
					t.Fatalf("scraping cluster: %v", err)
				}
				return SumAcross(exps, "overlay_walks_served_total", nil), SumAcross(exps, "overlay_routes_served_total", nil)
			}
			walks0, routes0 := served()
			// The two requests run at once, each at its own daemon.
			var resps [2]SampleResponse
			var errs [2]error
			var wg sync.WaitGroup
			for d := range resps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[d], errs[d] = SampleAt(c.Addr(d), draws, uint64(101+d))
				}()
			}
			wg.Wait()
			var seqs [2][]int
			for d, resp := range resps {
				if errs[d] != nil {
					t.Fatalf("sampling at daemon %d: %v", d, errs[d])
				}
				if len(resp.Points) != draws {
					t.Fatalf("daemon %d answered %d points, want %d", d, len(resp.Points), draws)
				}
				for _, p := range resp.Points {
					j, ok := rank[p]
					if !ok {
						t.Fatalf("daemon %d drew %v, not a member", d, ring.Point(p))
					}
					seqs[d] = append(seqs[d], j)
				}
			}
			a, b := seqs[0], seqs[1]
			stat, p, err := stats.SerialChiSquare(a, n)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("consecutive draws of one request are dependent: serial chi2 = %.1f, p = %.3g", stat, p)
			}
			hits, p, err := stats.Collisions(a, b, n)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("seeds 101 and 102 agree at %d of %d draws (%.0f expected), p = %.3g", hits, draws, float64(draws)/n, p)
			}
			walks, routes := served()
			if walks-walks0 < 1 {
				t.Errorf("no walk was served by a daemon, so none is in the stream")
			}
			if backend == "chord" && routes-routes0 < 1 {
				t.Errorf("no route tail was served by a daemon, so none is in the stream")
			}
			t.Logf("walks served %.0f, route tails served %.0f", walks-walks0, routes-routes0)
		})
	}
}
