package main

import (
	"net/http"
	"sync"
	"time"

	"github.com/dht-sampling/randompeer/internal/cluster"
	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/slo"
)

// sloMaxWindows bounds the retained window history: at the default 5s
// window this holds an hour of live SLO context; older windows fall
// off the front so a long-lived daemon's memory stays flat.
const sloMaxWindows = 720

// sloRecorder is the wall-clock counterpart of the virtual-time
// recorder in internal/load: a background loop snapshots the daemon's
// metrics registry every window, subtracts consecutive snapshots into
// per-window deltas, and maps the wire transport's RPC series onto SLO
// window inputs with cluster.WireSLOWindow, the mapping the fleet
// scrape uses. GET /v1/slo evaluates the retained windows on demand,
// so the report is always current without the daemon ever scraping
// itself over HTTP.
type sloRecorder struct {
	reg    *obs.Registry
	window time.Duration
	obj    slo.Objectives
	stop   chan struct{}

	mu     sync.Mutex
	epoch  time.Time
	prev   obs.RegistrySnapshot
	prevAt time.Time
	wins   []slo.WindowInput
}

// startSLORecorder takes the base snapshot and starts the window loop.
func startSLORecorder(reg *obs.Registry, window time.Duration) *sloRecorder {
	now := time.Now()
	r := &sloRecorder{
		reg:    reg,
		window: window,
		obj:    slo.DefaultObjectives(),
		stop:   make(chan struct{}),
		epoch:  now,
		prev:   reg.Snapshot(),
		prevAt: now,
	}
	go r.loop()
	return r
}

func (r *sloRecorder) loop() {
	t := time.NewTicker(r.window)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.mu.Lock()
			r.cutLocked(time.Now())
			r.mu.Unlock()
		}
	}
}

// cutLocked closes the window [prevAt, now): snapshot, delta, map onto
// an SLO window input, advance the cursor. Callers hold r.mu.
func (r *sloRecorder) cutLocked(now time.Time) {
	snap := r.reg.Snapshot()
	in := cluster.WireSLOWindow(snap.Delta(r.prev), r.prevAt.Sub(r.epoch), now.Sub(r.epoch))
	r.wins = append(r.wins, in)
	if len(r.wins) > sloMaxWindows {
		r.wins = r.wins[len(r.wins)-sloMaxWindows:]
	}
	r.prev, r.prevAt = snap, now
}

// Stop ends the window loop.
func (r *sloRecorder) Stop() { close(r.stop) }

// handle serves GET /v1/slo: the live report over every retained
// window; ?flush=1 cuts the current partial window first.
func (r *sloRecorder) handle(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	r.mu.Lock()
	if req.URL.Query().Get("flush") != "" {
		r.cutLocked(time.Now())
	}
	wins := append([]slo.WindowInput(nil), r.wins...)
	r.mu.Unlock()
	writeJSON(w, cluster.SLOResponse{
		WindowSeconds: r.window.Seconds(),
		Windows:       len(wins),
		Report:        slo.Evaluate(r.obj, wins),
	})
}
