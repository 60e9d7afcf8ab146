package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
	"github.com/dht-sampling/randompeer/internal/overlay"
)

// Scrape-and-aggregate helpers: fetch /metrics from daemons, validate
// the exposition with the obstest checker, and sum series across the
// fleet so tests (and the CLI) can assert cluster-wide invariants —
// e.g. that the wire RPCs every daemon served add up to the calls the
// client sent, that a process's calls are its own plus the steps of
// the walks it served (overlay_walk_steps_served_total) and the hops of
// the route tails it served after their first
// (overlay_route_hops_served_total), or that the fleet's calls for a
// request are an in-process replay's plus one a walk served, less the
// walks route tails ran (overlay_tail_walks_served_total).

// ScrapeMetrics fetches and parses one daemon's Prometheus exposition,
// failing on any format violation obstest detects.
func ScrapeMetrics(addr string) (*obstest.Exposition, error) {
	resp, err := ctlClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("cluster: GET /metrics on %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: /metrics on %s: status %d", addr, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return nil, fmt.Errorf("cluster: /metrics on %s: unexpected Content-Type %q", addr, ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading /metrics on %s: %w", addr, err)
	}
	e, err := obstest.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: invalid exposition from %s: %w", addr, err)
	}
	return e, nil
}

// ScrapeAll scrapes every daemon in the cluster, in daemon order.
func (c *Cluster) ScrapeAll() ([]*obstest.Exposition, error) {
	out := make([]*obstest.Exposition, c.Size())
	for i := range out {
		e, err := ScrapeMetrics(c.Addr(i))
		if err != nil {
			return nil, fmt.Errorf("daemon %d: %w", i, err)
		}
		out[i] = e
	}
	return out, nil
}

// SumAcross adds a metric's series (filtered to labels that contain
// want) over a set of scraped expositions.
func SumAcross(exps []*obstest.Exposition, name string, want map[string]string) float64 {
	var total float64
	for _, e := range exps {
		total += e.Sum(name, want)
	}
	return total
}

// ClientRegistry returns a fresh obs registry with the current client
// transport's metrics and its partition's served walk, tail walk and
// route counters registered — the client-side counterpart of a daemon
// scrape. It must be re-fetched after each Provision (which replaces
// the client transport).
func (c *Cluster) ClientRegistry() (*obs.Registry, error) {
	if c.client == nil {
		return nil, fmt.Errorf("cluster: no client transport; call Provision first")
	}
	r := obs.NewRegistry()
	c.client.RegisterMetrics(r)
	overlay.RegisterServedMetrics(r, c.net.Served)
	return r, nil
}
