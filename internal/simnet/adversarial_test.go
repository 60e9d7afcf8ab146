package simnet

import (
	"errors"
	"testing"
)

// This file covers the adversarial fault families — named partitions,
// asymmetric per-link drops, message-class loss — and the Byzantine
// interceptor hook on the Direct transport. The sim.Transport
// equivalents (virtual time, heal events on the kernel) live in
// internal/sim.

func TestFaultsPartition(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"direct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faults := NewFaults(nil)
			tr := faultTransports(faults)[name]
			defer tr.Close()
			for id := NodeID(1); id <= 4; id++ {
				if err := tr.Register(id, echoHandler); err != nil {
					t.Fatal(err)
				}
			}
			// Cut {1,2} from {3}; node 4 is in no group and unaffected.
			faults.Partition("split", []NodeID{1, 2}, []NodeID{3})
			for _, c := range []struct {
				from, to NodeID
				blocked  bool
			}{
				{1, 3, true}, {3, 1, true}, {2, 3, true},
				{1, 2, false}, {4, 1, false}, {4, 3, false}, {3, 4, false},
			} {
				_, err := tr.Call(c.from, c.to, "x")
				if c.blocked && !errors.Is(err, ErrPartitioned) {
					t.Errorf("%d->%d: err = %v, want ErrPartitioned", c.from, c.to, err)
				}
				if !c.blocked && err != nil {
					t.Errorf("%d->%d: err = %v, want nil", c.from, c.to, err)
				}
				if got := faults.Partitioned(c.from, c.to); got != c.blocked {
					t.Errorf("Partitioned(%d,%d) = %v, want %v", c.from, c.to, got, c.blocked)
				}
			}
			// Healing restores full connectivity.
			faults.Heal("split")
			if _, err := tr.Call(1, 3, "x"); err != nil {
				t.Errorf("after heal: %v", err)
			}
			// Healing an unknown partition is a no-op.
			faults.Heal("no-such-partition")
		})
	}
}

// TestFaultsPartitionsCompose: two named partitions block independently;
// an RPC passes only when no installed partition separates it.
func TestFaultsPartitionsCompose(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	faults.Partition("a", []NodeID{1}, []NodeID{2})
	faults.Partition("b", []NodeID{1}, []NodeID{3})
	if err := faults.Check(1, 2, "x"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partition a: %v", err)
	}
	if err := faults.Check(1, 3, "x"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partition b: %v", err)
	}
	faults.Heal("a")
	if err := faults.Check(1, 2, "x"); err != nil {
		t.Errorf("after healing a: %v", err)
	}
	if err := faults.Check(1, 3, "x"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("b must survive healing a: %v", err)
	}
	// Replacing a partition by name drops its old groups.
	faults.Partition("b", []NodeID{2}, []NodeID{3})
	if err := faults.Check(1, 3, "x"); err != nil {
		t.Errorf("after replacing b: %v", err)
	}
	if err := faults.Check(2, 3, "x"); !errors.Is(err, ErrPartitioned) {
		t.Errorf("replaced b: %v", err)
	}
}

// TestFaultsLinkDropAsymmetric: a per-link rule kills one direction of
// one edge and nothing else.
func TestFaultsLinkDropAsymmetric(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"direct"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faults := NewFaults(nil)
			faults.SetLinkDropRate(1, 2, 1)
			tr := faultTransports(faults)[name]
			defer tr.Close()
			for id := NodeID(1); id <= 3; id++ {
				if err := tr.Register(id, echoHandler); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tr.Call(1, 2, "x"); !errors.Is(err, ErrDropped) {
				t.Errorf("1->2: err = %v, want ErrDropped", err)
			}
			if _, err := tr.Call(2, 1, "x"); err != nil {
				t.Errorf("reverse direction 2->1: %v", err)
			}
			if _, err := tr.Call(1, 3, "x"); err != nil {
				t.Errorf("other link 1->3: %v", err)
			}
			faults.SetLinkDropRate(1, 2, 0)
			if _, err := tr.Call(1, 2, "x"); err != nil {
				t.Errorf("after removing rule: %v", err)
			}
		})
	}
}

type pingMsg struct{}
type dataMsg struct{}

// TestFaultsMessageClassDrop: class-targeted loss drops only the named
// payload type.
func TestFaultsMessageClassDrop(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	faults.SetMessageDropRate(MessageName(pingMsg{}), 1)
	tr := NewDirect(WithFaults(faults))
	defer tr.Close()
	if err := tr.Register(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(2, 1, pingMsg{}); !errors.Is(err, ErrDropped) {
		t.Errorf("targeted class: err = %v, want ErrDropped", err)
	}
	if _, err := tr.Call(2, 1, dataMsg{}); err != nil {
		t.Errorf("other class: %v", err)
	}
	faults.SetMessageDropRate(MessageName(pingMsg{}), 0)
	if _, err := tr.Call(2, 1, pingMsg{}); err != nil {
		t.Errorf("after removing rule: %v", err)
	}
}

// TestFaultsCheckFastPath: an attached-but-empty plan must not disturb
// calls, and emptying a plan re-disarms it.
func TestFaultsCheckFastPath(t *testing.T) {
	t.Parallel()
	faults := NewFaults(nil)
	if faults.active.Load() {
		t.Error("fresh plan is active")
	}
	faults.SetDropRate(0.5)
	if !faults.active.Load() {
		t.Error("plan with a drop rate is inactive")
	}
	faults.SetDropRate(0)
	if faults.active.Load() {
		t.Error("cleared plan still active")
	}
	faults.Partition("p", []NodeID{1}, []NodeID{2})
	if !faults.active.Load() {
		t.Error("partitioned plan is inactive")
	}
	faults.Heal("p")
	if faults.active.Load() {
		t.Error("healed plan still active")
	}
}
