package simnet_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/obs"
	"github.com/dht-sampling/randompeer/internal/raceflag"
	"github.com/dht-sampling/randompeer/internal/sim"
	"github.com/dht-sampling/randompeer/internal/simnet"
	"github.com/dht-sampling/randompeer/internal/wire"
)

// The fabric is written once and embedded by every transport, so its
// contract is tested once: the registry on a bare Fabric, the hooks
// through every delivery.

// ping and pong cross sockets in the wire cases, so they are registered
// with the wire codec.
type ping struct{ N uint64 }

type pong struct{ To, N uint64 }

func init() {
	wire.RegisterValue[ping]("simnettest.ping")
	wire.RegisterValue[pong]("simnettest.pong")
}

// answer resolves and invokes in one step, the way a transport does.
func answer(f *simnet.Fabric, to simnet.NodeID) (simnet.Message, error) {
	dst, err := f.Resolve(to)
	if err != nil {
		return nil, err
	}
	return f.Invoke(dst, 0, to, nil)
}

func TestFabricRegistry(t *testing.T) {
	var f simnet.Fabric
	node := func(simnet.NodeID, simnet.Message) (simnet.Message, error) { return "node", nil }
	bulk := func(to, _ simnet.NodeID, _ simnet.Message) (simnet.Message, error) {
		return fmt.Sprint("bulk ", to), nil
	}
	owns := func(id simnet.NodeID) bool { return id < 10 }
	wantAnswer := func(to simnet.NodeID, want string) {
		t.Helper()
		if got, err := answer(&f, to); err != nil || got != want {
			t.Fatalf("node %d answered (%v, %v), want %q", to, got, err, want)
		}
	}

	if err := f.Register(1, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if f.RegisterMulti(nil, bulk) == nil || f.RegisterMulti(owns, nil) == nil {
		t.Error("nil bulk registration accepted")
	}
	if _, err := f.Resolve(1); err != simnet.ErrUnknownNode {
		t.Fatalf("empty fabric resolves node 1 with %v, want bare ErrUnknownNode", err)
	}
	if err := f.Register(1, node); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(1, node); !errors.Is(err, simnet.ErrDuplicateID) {
		t.Errorf("duplicate id = %v, want ErrDuplicateID", err)
	}
	if err := f.RegisterMulti(owns, bulk); err != nil {
		t.Fatal(err)
	}
	wantAnswer(1, "node") // per-node registration beats bulk
	wantAnswer(2, "bulk 2")
	if _, err := f.Resolve(10); err != simnet.ErrUnknownNode {
		t.Errorf("node nobody owns resolves with %v, want ErrUnknownNode", err)
	}
	f.Deregister(1)
	wantAnswer(1, "bulk 1") // Deregister leaves bulk alone
	if err := f.Register(1, node); err != nil {
		t.Errorf("re-register after Deregister: %v", err)
	}
	f.DeregisterAll()
	for _, id := range []simnet.NodeID{1, 2} {
		if _, err := f.Resolve(id); err != simnet.ErrUnknownNode {
			t.Errorf("after DeregisterAll node %d resolves with %v, want ErrUnknownNode", id, err)
		}
	}
	if err := f.Register(1, node); err != nil {
		t.Errorf("register after DeregisterAll: %v", err)
	}

	if !f.Shut() || f.Shut() {
		t.Error("Shut must report true once, then false")
	}
	if _, err := f.Resolve(1); err != simnet.ErrClosed {
		t.Errorf("resolve after Shut = %v, want bare ErrClosed", err)
	}
	if err := f.Register(3, node); !errors.Is(err, simnet.ErrClosed) {
		t.Errorf("Register after Shut = %v, want ErrClosed", err)
	}
	if err := f.RegisterMulti(owns, bulk); !errors.Is(err, simnet.ErrClosed) {
		t.Errorf("RegisterMulti after Shut = %v, want ErrClosed", err)
	}
	f.Deregister(1) // must not panic

	// Resolve reads the registry with no lock while Register,
	// Deregister and Shut replace it: under -race every read sees one
	// whole registry. Node 0 is bulk-owned throughout, node 1 comes and
	// goes, and once a resolver sees ErrClosed it never sees anything
	// else.
	var g simnet.Fabric
	if err := g.RegisterMulti(owns, bulk); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			closed := false
			for i := 0; ; i++ {
				got0, err0 := answer(&g, 0)
				got1, err1 := answer(&g, 1)
				switch {
				case err0 == simnet.ErrClosed && err1 == simnet.ErrClosed:
					closed = true
				case closed:
					t.Errorf("resolve after Shut: %v, %v", err0, err1)
					return
				case err0 != nil || got0 != "bulk 0":
					t.Errorf("bulk node 0 answered (%v, %v)", got0, err0)
					return
				case err1 != nil && err1 != simnet.ErrClosed || err1 == nil && got1 != "node" && got1 != "bulk 1":
					t.Errorf("node 1 answered (%v, %v)", got1, err1)
					return
				}
				if closed && i > 1000 {
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		if err := g.Register(1, node); err != nil {
			t.Fatal(err)
		}
		g.Deregister(1)
	}
	g.Shut()
	wg.Wait()
}

// TestFabricShutReleasesRegistrations: a closed transport must not keep
// what registered on it reachable — a bulk registration holds a whole
// overlay network.
func TestFabricShutReleasesRegistrations(t *testing.T) {
	var f simnet.Fabric
	freed := make(chan string, 2)
	register := func(kind string) {
		held := new([64]byte) // stands for the network a handler closes over
		runtime.SetFinalizer(held, func(*[64]byte) { freed <- kind })
		var err error
		if kind == "bulk" {
			err = f.RegisterMulti(func(simnet.NodeID) bool { return held[0] == 1 },
				func(_, _ simnet.NodeID, _ simnet.Message) (simnet.Message, error) { return nil, nil })
		} else {
			err = f.Register(1, func(simnet.NodeID, simnet.Message) (simnet.Message, error) { return held[0], nil })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	register("node")
	register("bulk")
	f.Shut()
	got := map[string]bool{}
	for deadline := time.Now().Add(10 * time.Second); len(got) < 2 && time.Now().Before(deadline); {
		runtime.GC()
		select {
		case kind := <-freed:
			got[kind] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !got["node"] || !got["bulk"] {
		t.Errorf("after Shut the fabric still holds registrations: released %v", got)
	}
	runtime.KeepAlive(&f)
}

// hooked is what every transport gets from the fabric.
type hooked interface {
	simnet.Transport
	simnet.Interceptable
	obs.Traceable
}

// startWire returns a served wire transport, closed at test end.
func startWire(t *testing.T, opts ...wire.Option) *wire.Transport {
	t.Helper()
	tr := wire.NewTransport(opts...)
	if err := tr.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestFabricHooksEveryDelivery runs one hook contract against each way
// a call is delivered. host is where the overlay registers and the
// interceptor arms; caller is where Call is made, the trace arms, the
// fault plan sits and the meter is read. They differ only when the RPC
// is served over a socket.
func TestFabricHooksEveryDelivery(t *testing.T) {
	const remote = simnet.NodeID(7)
	beds := map[string]func(t *testing.T, f *simnet.Faults) (host, caller hooked){
		"direct": func(t *testing.T, f *simnet.Faults) (hooked, hooked) {
			tr := simnet.NewDirect(simnet.WithFaults(f))
			return tr, tr
		},
		"sim": func(t *testing.T, f *simnet.Faults) (hooked, hooked) {
			tr := sim.NewTransport(sim.WithFaults(f))
			return tr, tr
		},
		"wire-local": func(t *testing.T, f *simnet.Faults) (hooked, hooked) {
			tr := wire.NewTransport(wire.WithFaults(f))
			return tr, tr
		},
		"wire-served": func(t *testing.T, f *simnet.Faults) (hooked, hooked) {
			server := startWire(t)
			client := startWire(t, wire.WithFaults(f))
			client.SetRoute(remote, server.Addr())
			return server, client
		},
	}
	for name, mk := range beds {
		t.Run(name, func(t *testing.T) {
			faults := simnet.NewFaults(nil)
			host, caller := mk(t, faults)
			defer caller.Close()
			defer host.Close()
			var served atomic.Int64
			err := host.RegisterMulti(
				func(id simnet.NodeID) bool { return id == remote },
				func(to, _ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
					served.Add(1)
					return pong{To: uint64(to), N: msg.(ping).N}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			call := func(n uint64) (simnet.Message, error) { return caller.Call(1, remote, ping{N: n}) }
			cost := func() simnet.Cost { return caller.Meter().Snapshot() }

			// A bulk-registered overlay is served, and told which node.
			if resp, err := call(5); err != nil || resp != (pong{To: uint64(remote), N: 5}) {
				t.Fatalf("bulk-registered call = (%v, %v)", resp, err)
			}
			if c := cost(); c.Calls != 1 || c.Failures != 0 {
				t.Fatalf("cost after one call = %+v", c)
			}

			// An armed trace records one hop per Call; disarmed, none.
			tr := obs.NewTrace()
			caller.SetTrace(tr)
			if _, err := call(6); err != nil {
				t.Fatal(err)
			}
			caller.SetTrace(nil)
			if _, err := call(6); err != nil {
				t.Fatal(err)
			}
			if hops := tr.Hops(); len(hops) != 1 || hops[0].To != uint64(remote) || hops[0].Outcome != "ok" {
				t.Errorf("trace = %+v, want one ok hop to %d", hops, remote)
			}

			// An armed interceptor's rewritten outcome is what the caller
			// sees and what the meter charges.
			host.SetInterceptor(func(from, to simnet.NodeID, msg, resp simnet.Message, err error) (simnet.Message, error) {
				if msg.(ping).N == 0 {
					return nil, errors.New("censored")
				}
				return pong{N: 999}, err
			})
			if resp, err := call(7); err != nil || resp != (pong{N: 999}) {
				t.Errorf("forged call = (%v, %v), want the interceptor's reply", resp, err)
			}
			before := cost()
			if _, err := call(0); err == nil || !strings.Contains(err.Error(), "censored") ||
				simnet.ErrorClass(err) != "app" {
				t.Errorf("censored call error = %v, want the interceptor's", err)
			}
			if d := cost().Sub(before); d.Failures != 1 || d.Calls != 0 {
				t.Errorf("censored call charged %+v, want one failure", d)
			}
			host.SetInterceptor(nil)
			if resp, err := call(8); err != nil || resp != (pong{To: uint64(remote), N: 8}) {
				t.Errorf("disarmed call = (%v, %v), want the honest reply", resp, err)
			}

			// A dead-node fault fails the call before the handler runs.
			ran, before := served.Load(), cost()
			faults.SetDead(remote, true)
			if _, err := call(9); !errors.Is(err, simnet.ErrNodeDead) {
				t.Errorf("call to a dead node = %v, want ErrNodeDead", err)
			}
			if served.Load() != ran {
				t.Error("the handler ran for a call the fault plan failed")
			}
			if d := cost().Sub(before); d.Failures != 1 || d.Calls != 0 {
				t.Errorf("dead-node call charged %+v, want one failure", d)
			}
			faults.SetDead(remote, false)
			if _, err := call(10); err != nil {
				t.Errorf("revived node: %v", err)
			}
		})
	}
}

// TestAllocBudgetCall pins the disabled-hooks claim on the shortest
// call path there is: with the fault plan attached but empty and trace
// and interceptor disarmed, a Call allocates nothing.
func TestAllocBudgetCall(t *testing.T) {
	raceflag.SkipBudgets(t)
	tr := simnet.NewDirect(simnet.WithFaults(simnet.NewFaults(nil)))
	defer tr.Close()
	err := tr.RegisterMulti(func(simnet.NodeID) bool { return true },
		func(_, _ simnet.NodeID, msg simnet.Message) (simnet.Message, error) { return msg, nil })
	if err != nil {
		t.Fatal(err)
	}
	var msg simnet.Message = ping{N: 1}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := tr.Call(1, 2, msg); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Direct.Call allocates %v times per call, want 0", got)
	}
}
