package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/overlays"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// readyDeadline bounds how long a spawned daemon may take to print its
// address and answer /healthz; restarts reuse it as the rebind budget.
const readyDeadline = 10 * time.Second

var (
	binOnce sync.Once
	binPath string
	binErr  error
)

// DaemonBinary builds cmd/randpeerd once per process (into a temp
// directory) and returns the binary path. RANDPEERD_BIN overrides the
// build with a prebuilt binary. The build stamps the current commit
// into the binary when git can report one, mirroring the Makefile's
// ldflags, so /healthz and the build_info metric identify the build
// even in test clusters.
func DaemonBinary() (string, error) {
	binOnce.Do(func() {
		if env := os.Getenv("RANDPEERD_BIN"); env != "" {
			binPath = env
			return
		}
		root, err := moduleRoot()
		if err != nil {
			binErr = err
			return
		}
		dir, err := os.MkdirTemp("", "randpeerd-bin-")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "randpeerd")
		args := []string{"build"}
		if commit := gitCommit(root); commit != "" {
			args = append(args, "-ldflags", "-X main.version=test -X main.commit="+commit)
		}
		args = append(args, "-o", binPath, "./cmd/randpeerd")
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			binErr = fmt.Errorf("cluster: building randpeerd: %v\n%s", err, out)
		}
	})
	return binPath, binErr
}

// gitCommit returns the short commit hash of the repo at root, or ""
// when git is unavailable (builds must not fail over a missing VCS).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cluster: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// stderrTailCap bounds the per-daemon stderr capture.
const stderrTailCap = 8 << 10

// tailBuffer keeps the most recent cap bytes written to it. It lets
// harness failure messages carry the crashed daemon's stderr instead
// of a bare "connection refused". Safe for concurrent use (the daemon
// process writes while the harness reads on failure).
type tailBuffer struct {
	mu  sync.Mutex
	cap int
	buf []byte
}

func newTailBuffer(capacity int) *tailBuffer {
	return &tailBuffer{cap: capacity}
}

// Write implements io.Writer, never failing.
func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.cap; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

// String returns the captured tail.
func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// Daemon is one spawned randpeerd process. Its address stays stable
// across Kill/Restart so routing tables never need rewriting.
type Daemon struct {
	addr   string
	cmd    *exec.Cmd
	stderr *tailBuffer

	// lastProvision is replayed after a restart so the daemon rejoins
	// the overlay with its original partition.
	lastProvision *ProvisionRequest
}

// StderrTail returns the most recent stderr output of the daemon's
// current (or last) process — the first thing to include in a failure
// message when the daemon stops answering.
func (d *Daemon) StderrTail() string {
	if d.stderr == nil {
		return ""
	}
	return d.stderr.String()
}

// Cluster is a set of randpeerd processes plus a client-side wire
// transport hosting the caller's own node, together forming one
// overlay over loopback sockets.
type Cluster struct {
	bin     string
	daemons []*Daemon

	clientOpts []wire.Option
	client     *wire.Transport
	// net is the client's partition, which serves the walks the
	// daemons send to points[0].
	net overlay.Network

	backend string
	points  []ring.Point
	local   ring.Point
	owned   [][]ring.Point
}

// Start builds the daemon binary and spawns n daemons on free loopback
// ports, waiting until each answers /healthz. clientOpts configure the
// client-side wire transport created by each Provision call (retry
// budget, timeouts, jitter seed).
func Start(n int, clientOpts ...wire.Option) (*Cluster, error) {
	bin, err := DaemonBinary()
	if err != nil {
		return nil, err
	}
	c := &Cluster{bin: bin, clientOpts: clientOpts}
	for i := 0; i < n; i++ {
		d, err := spawn(bin, "127.0.0.1:0", uint64(i+1))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.daemons = append(c.daemons, d)
	}
	return c, nil
}

// spawn starts one daemon, parses its bound address off stdout, and
// waits for /healthz. jitterSeed pins the daemon's backoff schedule so
// cluster runs are reproducible.
func spawn(bin, listen string, jitterSeed uint64) (*Daemon, error) {
	// The short SLO window keeps the live /v1/slo report responsive in
	// tests; production deployments keep the daemon's 5s default.
	cmd := exec.Command(bin, "-listen", listen, "-jitter-seed", fmt.Sprint(jitterSeed),
		"-slo-window", "1s")
	// Tee stderr: the daemon's output stays visible live, and the tail
	// is retained so failures can say WHY a daemon died instead of just
	// "connection refused".
	tail := newTailBuffer(stderrTailCap)
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: starting %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			errc <- errors.New("cluster: daemon exited before announcing its address")
			return
		}
		line := sc.Text()
		const prefix = "randpeerd: listening on "
		if !strings.HasPrefix(line, prefix) {
			errc <- fmt.Errorf("cluster: unexpected daemon banner %q", line)
			return
		}
		addrc <- strings.TrimSpace(strings.TrimPrefix(line, prefix))
		// Drain any further output so the pipe never blocks the daemon.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		// Wait first: it returns once the daemon's last stderr bytes are
		// in the tail.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("%w%s", err, stderrSuffix(tail))
	case <-time.After(readyDeadline):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("cluster: daemon did not announce an address within %v%s", readyDeadline, stderrSuffix(tail))
	}
	if err := waitReady(addr, readyDeadline); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("%w%s", err, stderrSuffix(tail))
	}
	return &Daemon{addr: addr, cmd: cmd, stderr: tail}, nil
}

// stderrSuffix formats a captured stderr tail for inclusion in a
// failure message ("" when nothing was captured).
func stderrSuffix(tail *tailBuffer) string {
	s := strings.TrimSpace(tail.String())
	if s == "" {
		return ""
	}
	return "\ndaemon stderr:\n" + s
}

// waitReady polls /healthz until it answers 200 or the deadline runs
// out.
func waitReady(addr string, deadline time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	end := time.Now().Add(deadline)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("cluster: daemon at %s not healthy within %v (last: %v)", addr, deadline, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Size returns the number of daemons (dead or alive).
func (c *Cluster) Size() int { return len(c.daemons) }

// Addr returns daemon i's host:port.
func (c *Cluster) Addr(i int) string { return c.daemons[i].addr }

// StderrTail returns the most recent stderr output of daemon i.
func (c *Cluster) StderrTail(i int) string { return c.daemons[i].StderrTail() }

// Client returns the caller-side wire transport created by the last
// Provision (nil before the first). Tests arm traces and register
// metrics on it.
func (c *Cluster) Client() *wire.Transport { return c.client }

// Owned returns the points assigned to daemon i by the last Provision.
func (c *Cluster) Owned(i int) []ring.Point { return c.owned[i] }

// Kill terminates daemon i's process immediately (SIGKILL): in-flight
// RPCs see connection resets, subsequent ones connection refused.
func (c *Cluster) Kill(i int) error {
	d := c.daemons[i]
	if d.cmd == nil {
		return fmt.Errorf("cluster: daemon %d already dead", i)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = d.cmd.Wait()
	d.cmd = nil
	return nil
}

// Restart respawns daemon i on its original port and replays its last
// provision, so the rest of the cluster's routing tables keep working
// unchanged. The port may take a moment to become bindable again after
// the kill, so spawning retries until the ready deadline.
func (c *Cluster) Restart(i int) error {
	d := c.daemons[i]
	if d.cmd != nil {
		return fmt.Errorf("cluster: daemon %d still running", i)
	}
	end := time.Now().Add(readyDeadline)
	for {
		nd, err := spawn(c.bin, d.addr, uint64(i+1))
		if err == nil {
			d.cmd, d.stderr = nd.cmd, nd.stderr
			break
		}
		if time.Now().After(end) {
			return fmt.Errorf("cluster: restarting daemon %d on %s: %w", i, d.addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if d.lastProvision != nil {
		if err := ProvisionDaemon(d.addr, *d.lastProvision); err != nil {
			return fmt.Errorf("cluster: re-provisioning daemon %d: %w", i, err)
		}
	}
	return nil
}

// Close kills every daemon and closes the client transport.
func (c *Cluster) Close() {
	for _, d := range c.daemons {
		if d.cmd != nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
			d.cmd = nil
		}
	}
	if c.client != nil {
		_ = c.client.Close()
		c.client = nil
	}
}

// Provision partitions a static overlay across the cluster: the caller
// keeps points[0] on a fresh client-side transport (so the returned
// DHT's meter charges exactly what an in-process caller would be
// charged for each H and Next), and the remaining points split
// contiguously across the daemons. Every process gets the full
// point->address routing table. The returned DHT views the overlay
// from points[0]; a sampler over it sends each trial's walk to the
// process hosting the walk's first peer, and the client's partition
// serves the walks the daemons send to points[0].
func (c *Cluster) Provision(backend string, points []ring.Point) (dht.DHT, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	if c.client != nil {
		_ = c.client.Close()
		c.client = nil
	}
	client := wire.NewTransport(c.clientOpts...)
	if err := client.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	local := points[0]
	rest := points[1:]
	ownerAddr := make(map[ring.Point]string, len(points))
	ownerAddr[local] = client.Addr()
	perDaemon := make([][]ring.Point, len(c.daemons))
	for j, p := range rest {
		i := j * len(c.daemons) / len(rest)
		perDaemon[i] = append(perDaemon[i], p)
		ownerAddr[p] = c.daemons[i].addr
	}
	routes := make([]RouteEntry, 0, len(points))
	allPoints := make([]uint64, len(points))
	for i, p := range points {
		allPoints[i] = uint64(p)
		routes = append(routes, RouteEntry{Point: uint64(p), Addr: ownerAddr[p]})
	}
	for i, d := range c.daemons {
		owned := make([]uint64, len(perDaemon[i]))
		for j, p := range perDaemon[i] {
			owned[j] = uint64(p)
		}
		req := ProvisionRequest{Backend: backend, Points: allPoints, Owned: owned, Routes: routes}
		if err := ProvisionDaemon(d.addr, req); err != nil {
			_ = client.Close()
			return nil, err
		}
		d.lastProvision = &req
	}
	for _, p := range rest {
		client.SetRoute(simnet.NodeID(p), ownerAddr[p])
	}
	isLocal := func(p ring.Point) bool { return p == local }
	net, err := overlays.Build(backend, overlays.Config{}, client, points, isLocal)
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	view, err := net.AsDHT(local)
	if err != nil {
		_ = client.Close()
		return nil, err
	}
	c.client = client
	c.net = net
	c.backend = backend
	c.points = append([]ring.Point(nil), points...)
	c.local = local
	c.owned = perDaemon
	return view, nil
}
