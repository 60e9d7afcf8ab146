package cluster

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// refusingBinary writes a wrapper around the daemon binary that appends
// its pid to the returned pid file, then exits with a message on stderr
// when started with one of the given jitter seeds and otherwise execs
// the daemon, which keeps the pid.
func refusingBinary(t *testing.T, seeds ...int) (bin, pidFile string) {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("the wrapper is a shell script")
	}
	daemon, err := DaemonBinary()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, pidFile = filepath.Join(dir, "randpeerd-wrapper"), filepath.Join(dir, "pids")
	var script strings.Builder
	fmt.Fprintf(&script, "#!/bin/sh\necho $$ >> '%s'\ncase \" $* \" in\n", pidFile)
	for _, s := range seeds {
		fmt.Fprintf(&script, "*\" -jitter-seed %d \"*) echo \"wrapper: refusing jitter seed %d\" >&2; exit 3 ;;\n", s, s)
	}
	fmt.Fprintf(&script, "esac\nexec '%s' \"$@\"\n", daemon)
	if err := os.WriteFile(bin, []byte(script.String()), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin, pidFile
}

// TestClusterStartFailureReapsTheRest: when some daemons of a fleet
// cannot start, the error names each of them with its stderr tail and
// no other daemon, and every daemon that did start is killed and
// reaped before start returns (Start returns what start does): start
// closes the partial cluster, the daemons' addresses refuse
// connections, and no pid the fleet ran still takes a signal.
func TestClusterStartFailureReapsTheRest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	for _, refused := range [][]int{{1}, {0, 2}} {
		t.Run(fmt.Sprint(refused), func(t *testing.T) {
			seeds := make([]int, len(refused))
			for j, i := range refused {
				seeds[j] = i + 1
			}
			bin, pidFile := refusingBinary(t, seeds...)
			c, err := start(bin, 3, nil)
			t.Cleanup(c.Close)
			if err == nil {
				t.Fatal("start succeeded with a daemon that exits")
			}
			for i, d := range c.daemons {
				if slices.Contains(refused, i) {
					if d != nil {
						t.Errorf("daemon %d refused to start but holds a slot", i)
					}
					for _, want := range []string{
						fmt.Sprintf("cluster: starting daemon %d:", i),
						fmt.Sprintf("wrapper: refusing jitter seed %d", i+1),
					} {
						if !strings.Contains(err.Error(), want) {
							t.Errorf("start failed with %q, which does not say %q", err, want)
						}
					}
					continue
				}
				if d == nil {
					t.Fatalf("daemon %d started but holds no slot", i)
				}
				if strings.Contains(err.Error(), fmt.Sprintf("daemon %d:", i)) {
					t.Errorf("start's error names daemon %d, which started: %v", i, err)
				}
				if d.cmd != nil {
					t.Errorf("daemon %d still holds its process", i)
				}
				if conn, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
					conn.Close()
					t.Errorf("daemon %d's address %s still accepts connections", i, d.addr)
				}
			}
			// A process killed but not yet reaped still takes signal 0.
			pids, err := os.ReadFile(pidFile)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(strings.Fields(string(pids))); got != 3 {
				t.Fatalf("%d daemons ran, want 3", got)
			}
			for _, f := range strings.Fields(string(pids)) {
				pid, err := strconv.Atoi(f)
				if err != nil {
					t.Fatal(err)
				}
				p, err := os.FindProcess(pid)
				if err == nil {
					err = p.Signal(syscall.Signal(0))
				}
				if err == nil {
					t.Errorf("process %d was not reaped", pid)
				}
			}
		})
	}
}

// TestClusterProvisionFailureKeepsAccepted: a daemon that rejects its
// partition (killed before Provision) is named in the error, the new
// client transport is closed, and only the partitions that were
// accepted are recorded, so Restart replays the victim's last accepted
// partition, or none on a fresh cluster.
func TestClusterProvisionFailureKeepsAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test")
	}
	const victim = 1
	c := startCluster(t, 3, wire.WithJitterSeed(31))
	gen := func(seed uint64) []ring.Point {
		r, err := ring.Generate(rand.New(rand.NewPCG(seed, seed+1)), 24)
		if err != nil {
			t.Fatal(err)
		}
		return r.Points()
	}
	a, b := gen(71), gen(73)
	// failProvision kills the victim, provisions points and checks the
	// failure: its message, the closed client and the recorded
	// partitions.
	failProvision := func(points []ring.Point, victimKeeps []uint64) {
		t.Helper()
		if err := c.Kill(victim); err != nil {
			t.Fatal(err)
		}
		_, err := c.Provision("chord", points)
		if err == nil {
			t.Fatal("provisioning succeeded with a dead daemon")
		}
		if want := fmt.Sprintf("cluster: provisioning daemon %d at %s:", victim, c.Addr(victim)); !strings.Contains(err.Error(), want) {
			t.Errorf("provisioning failed with %q, which does not say %q", err, want)
		}
		if c.Client() != nil {
			t.Error("a failed Provision left a client transport")
		}
		for i, d := range c.daemons {
			if i == victim {
				if got := d.lastProvision; victimKeeps == nil && got != nil || victimKeeps != nil && (got == nil || !slices.Equal(got.Points, victimKeeps)) {
					t.Errorf("daemon %d records a partition it did not accept: %+v", i, got)
				}
				continue
			}
			if strings.Contains(err.Error(), fmt.Sprintf("daemon %d ", i)) {
				t.Errorf("provisioning's error names daemon %d, which accepted: %v", i, err)
			}
			req := d.lastProvision
			if req == nil || req.Points[0] != uint64(points[0]) {
				t.Fatalf("daemon %d accepted its partition but records %+v", i, req)
			}
			// The route to points[0] is the client transport's address.
			if conn, err := net.DialTimeout("tcp", req.Routes[0].Addr, time.Second); err == nil {
				conn.Close()
				t.Errorf("the failed Provision's client transport at %s still accepts connections", req.Routes[0].Addr)
			}
		}
		if err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
	}
	toU64 := func(points []ring.Point) []uint64 {
		out := make([]uint64, len(points))
		for i, p := range points {
			out[i] = uint64(p)
		}
		return out
	}

	// A fresh cluster: the victim never accepted a partition, so its
	// restart replays none and it serves no lookup.
	failProvision(a, nil)
	if _, err := LookupAt(c.Addr(victim), a[0]); err == nil {
		t.Error("the restarted daemon serves lookups without a partition")
	}

	// After a good Provision of a, a failed one of b leaves the victim
	// replaying a while the others hold b.
	if _, err := c.Provision("chord", a); err != nil {
		t.Fatalf("provisioning every daemon: %v", err)
	}
	owned := c.Owned(victim)
	failProvision(b, toU64(a))
	if next, err := NextAt(c.Addr(victim), owned[0]); err != nil || next != owned[1] {
		t.Errorf("restarted daemon: next(%v) = %v, %v; want %v from its accepted partition", owned[0], next, err, owned[1])
	}
	for _, i := range []int{0, 2} {
		mine := c.daemons[i].lastProvision.Owned
		if next, err := NextAt(c.Addr(i), ring.Point(mine[0])); err != nil || uint64(next) != mine[1] {
			t.Errorf("daemon %d: next(%v) = %v, %v; want %v from the new partition", i, mine[0], next, err, mine[1])
		}
	}
}
