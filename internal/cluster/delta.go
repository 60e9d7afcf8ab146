package cluster

import (
	"strings"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/obs/obstest"
	"github.com/dht-sampling/randompeer/internal/slo"
)

// Windowed fleet metrics: a ClusterScrape is one point-in-time capture
// of every daemon's /metrics exposition, and Delta turns two captures
// into per-window increases — the wall-clock counterpart of the
// virtual-time recorder in internal/load. Each daemon's window is
// obs.RegistrySnapshot.Delta of its two parsed readings, so counter and
// histogram resets clamp at zero per daemon: a restarted daemon reads
// as no progress for that window instead of dragging the fleet total
// negative.

// ClusterScrape is one fleet-wide metrics capture, daemon-indexed.
type ClusterScrape struct {
	// Taken is the wall-clock capture time.
	Taken time.Time
	// Daemons holds each daemon's parsed exposition, in daemon order.
	Daemons []*obstest.Exposition
}

// Scrape captures every daemon's /metrics exposition with one
// timestamp, ready for windowed Delta computation.
func (c *Cluster) Scrape() (*ClusterScrape, error) {
	exps, err := c.ScrapeAll()
	if err != nil {
		return nil, err
	}
	return &ClusterScrape{Taken: time.Now(), Daemons: exps}, nil
}

// ScrapeDelta is the fleet-wide change between two scrapes.
type ScrapeDelta struct {
	// Start and End are the two capture times.
	Start, End time.Time
	// Sum adds up the daemons' per-series deltas, keyed as obs.Key keys
	// them: counters and histograms by their clamped increase, gauges
	// (and untyped series) by their latest reading.
	Sum obs.RegistrySnapshot
	// Series is Sum's scalar series alone, value by key — the flat view
	// for a caller that reads one counter.
	Series map[string]float64
}

// Delta computes the fleet-wide increase from prev to s. Daemons are
// index-aligned; a daemon absent from prev (the fleet grew) counts
// from zero, and a daemon whose counters went backwards (it restarted)
// contributes zero for the affected series rather than a negative.
// prev may be nil, which reads every counter from zero.
func (s *ClusterScrape) Delta(prev *ClusterScrape) *ScrapeDelta {
	out := &ScrapeDelta{
		End:    s.Taken,
		Sum:    obs.RegistrySnapshot{Series: make(map[string]obs.SeriesValue)},
		Series: make(map[string]float64),
	}
	if prev != nil {
		out.Start = prev.Taken
	}
	for i, e := range s.Daemons {
		var old obs.RegistrySnapshot
		if prev != nil && i < len(prev.Daemons) {
			old = prev.Daemons[i].Snapshot()
		}
		d := e.Snapshot().Delta(old)
		for _, key := range d.Keys {
			v := d.Series[key]
			sum, seen := out.Sum.Series[key]
			if !seen {
				out.Sum.Keys = append(out.Sum.Keys, key)
				sum.Kind = v.Kind
			}
			if v.Kind == obs.KindHistogram {
				sum.Hist = sum.Hist.Add(v.Hist)
			} else {
				sum.Value += v.Value
				out.Series[key] = sum.Value
			}
			out.Sum.Series[key] = sum
		}
	}
	return out
}

// SLOWindow maps the fleet delta onto the SLO engine's window input
// (WireSLOWindow), with the capture times relative to epoch as the
// window bounds. Feeding successive deltas to slo.Evaluate yields the
// same report shape over a live cluster that E28 computes in virtual
// time.
func (d *ScrapeDelta) SLOWindow(epoch time.Time) slo.WindowInput {
	return WireSLOWindow(d.Sum, d.Start.Sub(epoch), d.End.Sub(epoch))
}

// WireSLOWindow maps one window's registry delta onto the SLO engine's
// input from the wire transport's RPC series: OK counts the successful
// round trips the duration histogram recorded, Failed sums the failure
// taxonomy counters. It is the one such mapping: the fleet's SLOWindow
// and randpeerd's live /v1/slo recorder both call it.
func WireSLOWindow(delta obs.RegistrySnapshot, start, end time.Duration) slo.WindowInput {
	in := slo.WindowInput{Start: start, End: end}
	in.Latency, _ = delta.Hist("wire_rpc_duration_seconds")
	in.OK = in.Latency.Count
	for _, key := range delta.Keys {
		if strings.HasPrefix(key, "wire_rpc_failures_total") {
			v, _ := delta.Value(key)
			in.Failed += int64(v)
		}
	}
	return in
}
