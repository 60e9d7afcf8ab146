package randompeer

import (
	"testing"
	"time"

	"github.com/dht-sampling/randompeer/internal/kademlia"
	"github.com/dht-sampling/randompeer/internal/sim"
)

// TestFacadeOptions reaches the options README documents that no other
// test builds with: WithBucketSize and WithAlpha reach the Kademlia
// network, WithSimTime puts a testbed on the 1ms constant model, and
// FaultPlan drops a chord testbed's calls on demand.
func TestFacadeOptions(t *testing.T) {
	t.Parallel()
	const n = 64
	t.Run("kademlia", func(t *testing.T) {
		t.Parallel()
		tb, err := New(WithPeers(n), WithBackend(KademliaBackend), WithBucketSize(8), WithAlpha(2))
		if err != nil {
			t.Fatal(err)
		}
		net, ok := tb.Network().(*kademlia.Network)
		if !ok {
			t.Fatalf("Network() is %T, want *kademlia.Network", tb.Network())
		}
		if got, want := net.Config(), (kademlia.Config{BucketSize: 8, Alpha: 2}); got != want {
			t.Errorf("Config() = %+v, want %+v", got, want)
		}
		if err := net.VerifyTables(); err != nil {
			t.Error(err)
		}
	})
	t.Run("sim-time", func(t *testing.T) {
		t.Parallel()
		for _, b := range Backends() {
			tb, err := New(WithPeers(n), WithBackend(b), WithSimTime())
			if err != nil {
				t.Fatal(err)
			}
			if !tb.SimTime() {
				t.Errorf("%s: SimTime() = false under WithSimTime", b)
			}
			if got, want := tb.LatencyModel(), LatencyModel(sim.Constant{RTT: time.Millisecond}); got != want {
				t.Errorf("%s: LatencyModel() = %v, want %v", b, got, want)
			}
			s, err := tb.UniformSampler(3)
			if err != nil {
				t.Fatal(err)
			}
			before := tb.VirtualTime()
			if _, err := s.Sample(); err != nil {
				t.Fatal(err)
			}
			if after := tb.VirtualTime(); after <= before {
				t.Errorf("%s: VirtualTime() %v before a sample, %v after", b, before, after)
			}
		}
	})
	t.Run("fault-plan", func(t *testing.T) {
		t.Parallel()
		oracle, err := New(WithPeers(n))
		if err != nil {
			t.Fatal(err)
		}
		if oracle.FaultPlan() != nil {
			t.Error("the oracle has a fault plan")
		}
		tb, err := New(WithPeers(n), WithBackend(ChordBackend))
		if err != nil {
			t.Fatal(err)
		}
		plan := tb.FaultPlan()
		if plan == nil {
			t.Fatal("chord has no fault plan")
		}
		s, err := tb.UniformSampler(4)
		if err != nil {
			t.Fatal(err)
		}
		plan.SetDropRate(1)
		if p, err := s.Sample(); err == nil {
			t.Errorf("sampled %v with every call dropped", p)
		}
		plan.SetDropRate(0)
		if _, err := s.Sample(); err != nil {
			t.Errorf("sample after the drops were lifted: %v", err)
		}
	})
}
