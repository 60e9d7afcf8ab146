// Package cluster spawns and drives a multi-process randpeerd cluster
// over loopback TCP: it builds the daemon binary, starts N processes,
// waits for readiness, partitions a static overlay across them, and
// supports killing and restarting individual daemons. The conformance
// and determinism suites run over it unchanged, which is the
// executable claim that the wire transport preserves the in-process
// semantics.
//
// This file defines the daemon's control-API types (shared with
// cmd/randpeerd) and thin HTTP client helpers for them.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/slo"
)

// RouteEntry maps a node point to the host:port of its owning process.
type RouteEntry struct {
	Point uint64 `json:"point"`
	Addr  string `json:"addr"`
}

// ProvisionRequest installs a static overlay partition on one daemon:
// the full membership defines every node's routing state, but only the
// owned subset is registered on that daemon's transport; every other
// point must appear in Routes.
type ProvisionRequest struct {
	Backend string       `json:"backend"`          // "chord" or "kademlia"
	Bucket  int          `json:"bucket,omitempty"` // kademlia k; randpeerd refuses > 256
	Alpha   int          `json:"alpha,omitempty"`
	Points  []uint64     `json:"points"`
	Owned   []uint64     `json:"owned"`
	Routes  []RouteEntry `json:"routes"`
}

// JoinRequest splices a fresh node (hosted on the receiving daemon)
// into the overlay through a bootstrap point reachable via its routes.
type JoinRequest struct {
	ID        uint64 `json:"id"`
	Bootstrap uint64 `json:"bootstrap"`
}

// LookupRequest resolves the owner of a key from the daemon's view.
type LookupRequest struct {
	Key uint64 `json:"key"`
}

// LookupResponse reports the owner and the metered RPC cost of the
// lookup.
type LookupResponse struct {
	Owner    uint64 `json:"owner"`
	Calls    int64  `json:"calls"`
	Messages int64  `json:"messages"`
}

// NextRequest asks for the immediate clockwise successor of a peer.
type NextRequest struct {
	Point uint64 `json:"point"`
}

// NextResponse carries the successor point.
type NextResponse struct {
	Point uint64 `json:"point"`
}

// SampleRequest draws Count random peers with a King–Saia sampler
// seeded from Seed.
type SampleRequest struct {
	Count int    `json:"count"`
	Seed  uint64 `json:"seed"`
}

// SampleResponse lists the drawn peers and what the request cost: the
// metered RPCs beside the sampler's own effort, so the cost reads as
// trials x (h + walk).
type SampleResponse struct {
	Points []uint64 `json:"points"`
	// Calls is the serving daemon's meter delta over the request: the
	// calls its own transport issued — the estimate, the h lookups, the
	// next steps it walked itself and one call per walk it sent to the
	// process hosting the walk's first peer. The steps such a walk runs
	// there are charged to that process's meter, not here. Requests are
	// served under a shared lock, so the delta also counts the calls of
	// any request or delegated walk the daemon served meanwhile; it is
	// the request's own only when nothing overlapped it.
	Calls int64 `json:"calls"`
	// Trials, Steps and Pruned are the request's core.Stats: h lookups,
	// next steps, and failed trials abandoned at the horizon.
	Trials int64 `json:"trials"`
	Steps  int64 `json:"steps"`
	Pruned int64 `json:"pruned"`
}

// MetricsResponse is the daemon's meter-snapshot endpoint payload.
type MetricsResponse struct {
	Backend       string   `json:"backend"`
	Owned         []uint64 `json:"owned"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	ServedCalls   int64    `json:"served_calls"`
	Calls         int64    `json:"calls"`
	Messages      int64    `json:"messages"`
	Failures      int64    `json:"failures"`
}

// HealthResponse is the daemon's /healthz payload: liveness plus the
// build identity stamped into the binary.
type HealthResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	Commit  string `json:"commit"`
}

// TraceRequest runs one traced lookup on the daemon: the key's owner
// is resolved with hop tracing armed on the daemon's transport.
type TraceRequest struct {
	Key uint64 `json:"key"`
}

// TraceResponse reports the traced lookup: the owner, the trace id
// (usable against every daemon's GET /v1/trace?id=N for the spans each
// process observed), the meter's charged calls for the lookup, and the
// client-side hop record.
type TraceResponse struct {
	TraceID uint64    `json:"trace_id"`
	Owner   uint64    `json:"owner"`
	Calls   int64     `json:"calls"`
	Hops    []obs.Hop `json:"hops"`
}

// TraceSpansResponse lists the spans one process retained for a trace
// id (GET /v1/trace?id=N).
type TraceSpansResponse struct {
	TraceID uint64    `json:"trace_id"`
	Spans   []obs.Hop `json:"spans"`
}

// SLOResponse is GET /v1/slo's payload: the daemon's live windowed SLO
// report, evaluated over the wall-clock windows its background
// recorder has cut from the metrics registry since startup. With
// ?flush=1 the daemon also cuts the current partial window first, so a
// test (or an operator mid-incident) sees traffic that arrived since
// the last window boundary.
type SLOResponse struct {
	WindowSeconds float64    `json:"window_seconds"`
	Windows       int        `json:"windows"`
	Report        slo.Report `json:"report"`
}

// ctlClient is the shared control-plane HTTP client. Control calls are
// operator actions, so the deadline is generous relative to RPC
// timeouts.
var ctlClient = &http.Client{Timeout: 30 * time.Second}

// postJSON posts in as JSON and decodes the reply into out (skipped
// when out is nil). Non-200 statuses become errors carrying the body.
func postJSON(addr, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s request: %w", path, err)
	}
	resp, err := ctlClient.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: reading %s reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decoding %s reply: %w", path, err)
	}
	return nil
}

// ProvisionDaemon installs an overlay partition on the daemon at addr.
func ProvisionDaemon(addr string, req ProvisionRequest) error {
	return postJSON(addr, "/v1/provision", req, nil)
}

// JoinAt asks the daemon at addr to join a fresh node via bootstrap.
func JoinAt(addr string, id, bootstrap ring.Point) error {
	return postJSON(addr, "/v1/join", JoinRequest{ID: uint64(id), Bootstrap: uint64(bootstrap)}, nil)
}

// NextAt asks the daemon at addr for p's immediate successor.
func NextAt(addr string, p ring.Point) (ring.Point, error) {
	var out NextResponse
	err := postJSON(addr, "/v1/next", NextRequest{Point: uint64(p)}, &out)
	return ring.Point(out.Point), err
}

// LookupAt resolves key's owner from the daemon at addr.
func LookupAt(addr string, key ring.Point) (LookupResponse, error) {
	var out LookupResponse
	err := postJSON(addr, "/v1/lookup", LookupRequest{Key: uint64(key)}, &out)
	return out, err
}

// SampleAt draws count peers from the daemon at addr.
func SampleAt(addr string, count int, seed uint64) (SampleResponse, error) {
	var out SampleResponse
	err := postJSON(addr, "/v1/sample", SampleRequest{Count: count, Seed: seed}, &out)
	return out, err
}

// MetricsAt fetches the daemon's meter snapshot.
func MetricsAt(addr string) (MetricsResponse, error) {
	var out MetricsResponse
	resp, err := ctlClient.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		return out, fmt.Errorf("cluster: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: /v1/metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decoding /v1/metrics: %w", err)
	}
	return out, nil
}

// HealthAt fetches the daemon's health and build identity.
func HealthAt(addr string) (HealthResponse, error) {
	var out HealthResponse
	resp, err := ctlClient.Get("http://" + addr + "/healthz")
	if err != nil {
		return out, fmt.Errorf("cluster: GET /healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: /healthz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decoding /healthz: %w", err)
	}
	return out, nil
}

// SLOAt fetches the daemon's live SLO report; flush asks the daemon to
// cut the current partial window before evaluating.
func SLOAt(addr string, flush bool) (SLOResponse, error) {
	var out SLOResponse
	url := "http://" + addr + "/v1/slo"
	if flush {
		url += "?flush=1"
	}
	resp, err := ctlClient.Get(url)
	if err != nil {
		return out, fmt.Errorf("cluster: GET /v1/slo: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: /v1/slo: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decoding /v1/slo: %w", err)
	}
	return out, nil
}

// TraceAt runs one traced lookup on the daemon at addr.
func TraceAt(addr string, key ring.Point) (TraceResponse, error) {
	var out TraceResponse
	err := postJSON(addr, "/v1/trace", TraceRequest{Key: uint64(key)}, &out)
	return out, err
}

// TraceSpansAt fetches the spans the daemon at addr retained for a
// trace id.
func TraceSpansAt(addr string, id uint64) (TraceSpansResponse, error) {
	var out TraceSpansResponse
	resp, err := ctlClient.Get(fmt.Sprintf("http://%s/v1/trace?id=%d", addr, id))
	if err != nil {
		return out, fmt.Errorf("cluster: GET /v1/trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: /v1/trace: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("cluster: decoding /v1/trace: %w", err)
	}
	return out, nil
}
