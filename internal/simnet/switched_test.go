package simnet

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestWireModeString(t *testing.T) {
	if WireIdeal.String() != "ideal" || WireShared.String() != "shared" || WireSwitched.String() != "switched" {
		t.Error("mode names wrong")
	}
	if WireMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestSwitchedNeedsEndpoints(t *testing.T) {
	k := des.NewKernel()
	m := mustModel(t)
	defer func() {
		if recover() == nil {
			t.Error("want panic for 0 endpoints")
		}
	}()
	NewWireMode(k, m, WireSwitched, 0)
}

func TestSwitchedParallelDisjointPairs(t *testing.T) {
	// Transfers 0->1 and 2->3 overlap on a switch (unlike a shared bus).
	m := mustModel(t)
	const bytes = 100000
	run := func(mode WireMode) float64 {
		k := des.NewKernel()
		w := NewWireMode(k, m, mode, 4)
		for _, pair := range [][2]int{{0, 1}, {2, 3}} {
			pair := pair
			k.Spawn("tx", func(p *des.Proc) {
				w.Occupy(p, bytes, pair[0], pair[1])
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	switched := run(WireSwitched)
	shared := run(WireShared)
	ideal := run(WireIdeal)
	if math.Abs(switched-ideal) > 1e-9 {
		t.Errorf("disjoint pairs on a switch should be ideal: %g vs %g", switched, ideal)
	}
	if shared < 2*ideal-1e-9 {
		t.Errorf("shared bus should serialize: %g vs 2x%g", shared, ideal)
	}
}

func TestSwitchedSerializesSharedEndpoint(t *testing.T) {
	// Transfers 0->2 and 1->2 share the destination port: serialized.
	m := mustModel(t)
	const bytes = 100000
	k := des.NewKernel()
	w := NewWireMode(k, m, WireSwitched, 3)
	for _, pair := range [][2]int{{0, 2}, {1, 2}} {
		pair := pair
		k.Spawn("tx", func(p *des.Proc) {
			w.Occupy(p, bytes, pair[0], pair[1])
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2 * m.TransferTime(bytes)
	if math.Abs(k.Now()-want) > 1e-9 {
		t.Errorf("shared destination port: %g, want %g", k.Now(), want)
	}
}

func TestSwitchedOppositeTransfersNoDeadlock(t *testing.T) {
	// 0->1 and 1->0 concurrently: canonical port ordering must avoid
	// circular wait; the two transfers serialize on the shared port pair.
	m := mustModel(t)
	const bytes = 50000
	k := des.NewKernel()
	w := NewWireMode(k, m, WireSwitched, 2)
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		pair := pair
		k.Spawn("tx", func(p *des.Proc) {
			w.Occupy(p, bytes, pair[0], pair[1])
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("deadlock or error: %v", err)
	}
	want := 2 * m.TransferTime(bytes)
	if math.Abs(k.Now()-want) > 1e-9 {
		t.Errorf("opposite transfers: %g, want %g", k.Now(), want)
	}
}

func TestSwitchedSelfTransfer(t *testing.T) {
	m := mustModel(t)
	k := des.NewKernel()
	w := NewWireMode(k, m, WireSwitched, 2)
	k.Spawn("tx", func(p *des.Proc) {
		w.Occupy(p, 1000, 1, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.Now()-m.TransferTime(1000)) > 1e-9 {
		t.Errorf("self transfer time %g", k.Now())
	}
}
