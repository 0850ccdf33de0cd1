package mpi

import (
	"context"
	"testing"

	"repro/internal/simnet"
)

func TestNetworkOptionValidation(t *testing.T) {
	cl := testCluster(t, 50, 50)
	m := testModel(t)
	prog := func(c Comm) error { return nil }
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineLive, Network: simnet.WireSwitched}, prog); err == nil {
		t.Error("live engine with switched network accepted")
	}
	if _, err := Run(context.Background(), cl, m, Options{Engine: EngineDES, Network: simnet.WireSwitched}, prog); err != nil {
		t.Errorf("des engine with switched network rejected: %v", err)
	}
}

func TestNetworkModesOrdering(t *testing.T) {
	// Many simultaneous point-to-point transfers to distinct destinations:
	// ideal <= switched <= shared makespans, strictly where contention
	// actually bites.
	cl := testCluster(t, 50, 50, 50, 50, 50, 50)
	m := testModel(t)
	prog := func(c Comm) error {
		p := c.Size()
		// Ring shift: rank r sends a large payload to (r+1)%p.
		to := (c.Rank() + 1) % p
		from := (c.Rank() + p - 1) % p
		c.Send(to, 0, make([]float64, 40000))
		c.Recv(from, 0)
		return nil
	}
	run := func(mode simnet.WireMode) float64 {
		res, err := Run(context.Background(), cl, m, Options{Engine: EngineDES, Network: mode}, prog)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res.TimeMS
	}
	ideal := run(simnet.WireIdeal)
	switched := run(simnet.WireSwitched)
	shared := run(simnet.WireShared)
	if !(ideal <= switched+1e-9) {
		t.Errorf("ideal %g > switched %g", ideal, switched)
	}
	if !(switched < shared) {
		t.Errorf("switched %g not faster than shared %g", switched, shared)
	}
	// A ring of disjoint destination ports still shares source ports with
	// the incoming transfer... but on a shared bus all six serialize:
	// shared must be ~6x the single transfer occupancy.
	if shared < 5*m.TransferTime(40000*8) {
		t.Errorf("shared bus %g did not serialize 6 transfers (unit %g)", shared, m.TransferTime(40000*8))
	}
}

func TestContendedAliasStillWorks(t *testing.T) {
	cl := testCluster(t, 50, 50, 50)
	m := testModel(t)
	prog := func(c Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				c.Recv(r, 0)
			}
			return nil
		}
		c.Send(0, 0, make([]float64, 30000))
		return nil
	}
	viaBool, err := Run(context.Background(), cl, m, Options{Engine: EngineDES, Contended: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	viaMode, err := Run(context.Background(), cl, m, Options{Engine: EngineDES, Network: simnet.WireShared}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if viaBool.TimeMS != viaMode.TimeMS {
		t.Errorf("Contended alias %g != explicit shared %g", viaBool.TimeMS, viaMode.TimeMS)
	}
}
