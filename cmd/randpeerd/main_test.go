package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dht-sampling/randompeer/internal/cluster"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// badBucketBody asks for a kademlia k of 2^30: 1 024 regions of k+5
// words would be a 4 TB chunk, and any k above 0xffff wraps the
// region header's entry count.
const badBucketBody = `{"backend":"kademlia","bucket":1073741824,"points":[1,2,3],"owned":[1,2,3]}`

// testDaemon serves a fresh daemon on an httptest server. Retries are
// off so a call toward an unreachable route fails at once.
func testDaemon(t testing.TB) *httptest.Server {
	t.Helper()
	d := newDaemon(wire.NewTransport(wire.WithRetries(0, 0, 0)))
	srv := httptest.NewServer(d.mux())
	t.Cleanup(func() {
		srv.Close()
		_ = d.tr.Close()
	})
	return srv
}

// post sends body to path and returns the status and reply body.
func post(t testing.TB, srv *httptest.Server, path string, body []byte) (int, string) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading the reply: %v", path, err)
	}
	return resp.StatusCode, string(out)
}

// healthy fails the test unless /healthz still answers 200.
func healthy(t testing.TB, srv *httptest.Server) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d", resp.StatusCode)
	}
}

func TestProvisionRejectsOversizedBucket(t *testing.T) {
	srv := testDaemon(t)
	code, body := post(t, srv, "/v1/provision", []byte(badBucketBody))
	if code != http.StatusBadRequest || !strings.HasPrefix(body, "randpeerd: ") {
		t.Fatalf("bucket 2^30: %d %q, want 400 with the randpeerd prefix", code, body)
	}
	healthy(t, srv)
	// The cap itself is accepted.
	ok := `{"backend":"kademlia","bucket":256,"points":[1,2,3],"owned":[1,2,3]}`
	if code, body := post(t, srv, "/v1/provision", []byte(ok)); code != http.StatusOK {
		t.Fatalf("bucket 256: %d %q, want 200", code, body)
	}
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t testing.TB) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

var controlPaths = []string{"/v1/provision", "/v1/join", "/v1/lookup", "/v1/next", "/v1/sample", "/v1/trace"}

// FuzzDaemonControl posts a provision body and then one more body to a
// control endpoint of a fresh daemon. Whatever the bytes, the daemon
// must not panic, must answer 2xx or one of its error codes with the
// randpeerd prefix, and must still answer /healthz. Provision routes
// are rewritten to a closed loopback port, so no input dials out.
func FuzzDaemonControl(f *testing.F) {
	f.Add([]byte(badBucketBody), uint8(4), []byte(`{"count":3,"seed":1}`))
	f.Add([]byte(`{"backend":"chord","points":[10,20,30,40],"owned":[10,20,30,40]}`), uint8(4), []byte(`{"count":5,"seed":2}`))
	f.Add([]byte(`{"backend":"kademlia","bucket":4,"points":[10,20,30,40],"owned":[10,20,30,40]}`), uint8(2), []byte(`{"key":25}`))
	f.Add([]byte(`{"backend":"chord","points":[10,20,30,40],"owned":[10,20],"routes":[{"point":30,"addr":"x"},{"point":40,"addr":"y"}]}`), uint8(3), []byte(`{"point":20}`))
	f.Add([]byte(`{"backend":"kademlia","points":[10,20,30,40],"owned":[10,20,30,40]}`), uint8(1), []byte(`{"id":25,"bootstrap":10}`))
	f.Add([]byte(`{"backend":"nope","points":[1]}`), uint8(5), []byte(`{"key":7}`))
	f.Add([]byte(`{`), uint8(0), []byte(`[]`))
	closed := closedAddr(f)
	f.Fuzz(func(t *testing.T, provision []byte, path uint8, body []byte) {
		srv := testDaemon(t)
		for _, req := range []struct {
			path string
			body []byte
		}{
			{"/v1/provision", provision},
			{controlPaths[int(path)%len(controlPaths)], body},
		} {
			if req.path == "/v1/provision" {
				req.body = closeRoutes(req.body, closed)
			}
			code, reply := post(t, srv, req.path, req.body)
			switch {
			case code/100 == 2:
			case code == http.StatusBadRequest, code == http.StatusMethodNotAllowed,
				code == http.StatusConflict, code == http.StatusInternalServerError:
				if !strings.HasPrefix(reply, "randpeerd: ") {
					t.Fatalf("%s answered %d without the randpeerd prefix: %q", req.path, code, reply)
				}
			default:
				t.Fatalf("%s answered %d: %q", req.path, code, reply)
			}
		}
		healthy(t, srv)
	})
}

// closeRoutes points every route of a provision body at addr. A body
// the daemon would not decode is returned unchanged: it never reaches
// the routing table.
func closeRoutes(body []byte, addr string) []byte {
	var req cluster.ProvisionRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return body
	}
	for i := range req.Routes {
		req.Routes[i].Addr = addr
	}
	out, err := json.Marshal(req)
	if err != nil {
		return body
	}
	return out
}

// TestConcurrentSamplesAcrossDaemons runs two daemons in this process,
// each hosting half of one overlay, and fires /v1/sample requests at
// both from several goroutines: requests share each daemon's lock,
// and each daemon serves the other's delegated walks and route tails
// while it samples. Every request must draw what it draws alone.
func TestConcurrentSamplesAcrossDaemons(t *testing.T) {
	r, err := ring.Generate(rand.New(rand.NewPCG(3, 5)), 64)
	if err != nil {
		t.Fatal(err)
	}
	points := r.Points()
	srvs := []*httptest.Server{testDaemon(t), testDaemon(t)}
	addr := func(i int) string { return srvs[i].Listener.Addr().String() }
	all := make([]uint64, len(points))
	owned := [][]uint64{nil, nil}
	routes := make([]cluster.RouteEntry, len(points))
	for i, p := range points {
		all[i] = uint64(p)
		owned[i%2] = append(owned[i%2], uint64(p))
		routes[i] = cluster.RouteEntry{Point: uint64(p), Addr: addr(i % 2)}
	}
	for i := range srvs {
		req := cluster.ProvisionRequest{Backend: "chord", Points: all, Owned: owned[i], Routes: routes}
		if err := cluster.ProvisionDaemon(addr(i), req); err != nil {
			t.Fatal(err)
		}
	}
	const requests = 24
	want := make([]cluster.SampleResponse, requests)
	for i := range want {
		if want[i], err = cluster.SampleAt(addr(i%2), 3, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := cluster.SampleAt(addr(i%2), 3, uint64(i))
			switch {
			case err != nil:
				errs <- err
			case !slices.Equal(got.Points, want[i].Points) || got.Trials != want[i].Trials || got.Steps != want[i].Steps:
				errs <- fmt.Errorf("request %d drew %v (%d trials, %d steps) concurrently, %v (%d, %d) alone",
					i, got.Points, got.Trials, got.Steps, want[i].Points, want[i].Trials, want[i].Steps)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := range srvs {
		e, err := cluster.ScrapeMetrics(addr(i))
		if err != nil {
			t.Fatal(err)
		}
		if walks, _ := e.Value("overlay_walks_served_total", nil); walks < 1 {
			t.Errorf("daemon %d served %v walks; each hosts every other peer, so it should serve some", i, walks)
		}
		if routes, _ := e.Value("overlay_routes_served_total", nil); routes < 1 {
			t.Errorf("daemon %d served %v route tails; each hosts every other peer, so it should serve some", i, routes)
		}
	}
}
