package mpi

import (
	"context"
	"math"
	"testing"

	"repro/internal/simnet"
)

func gridModel(t *testing.T, sites []int) *simnet.TwoLevel {
	t.Helper()
	local, err := simnet.NewParamModel("lan", simnet.Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := simnet.NewParamModel("wan", simnet.WAN())
	if err != nil {
		t.Fatal(err)
	}
	tl, err := simnet.NewTwoLevel("grid", local, remote, sites)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestGridSendCostsDependOnSites(t *testing.T) {
	cl := testCluster(t, 50, 50, 50, 50)
	tl := gridModel(t, []int{0, 0, 1, 1})
	payload := make([]float64, 512)
	b := simnet.WordBytes * len(payload)

	run := func(to int) float64 {
		res, err := Run(context.Background(), cl, tl, Options{}, func(c Comm) error {
			switch c.Rank() {
			case 0:
				c.Send(to, 1, payload)
			case to:
				c.Recv(0, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.RankClocks[to]
	}
	intra := run(1)
	inter := run(2)
	wantIntra := tl.Local.SendTime(b) + tl.Local.TransferTime(b) + tl.Local.RecvTime(b)
	wantInter := tl.Remote.SendTime(b) + tl.Remote.TransferTime(b) + tl.Remote.RecvTime(b)
	if math.Abs(intra-wantIntra) > 1e-9 {
		t.Errorf("intra-site time %g, want %g", intra, wantIntra)
	}
	if math.Abs(inter-wantInter) > 1e-9 {
		t.Errorf("cross-site time %g, want %g", inter, wantInter)
	}
	if inter < 20*intra {
		t.Errorf("WAN hop %g should dwarf LAN hop %g", inter, intra)
	}
}

func TestGridEnginesAgree(t *testing.T) {
	cl := testCluster(t, 40, 80, 60, 90)
	tl := gridModel(t, []int{0, 0, 1, 1})
	prog := func(c Comm) error {
		c.Compute(2e5)
		c.Bcast(0, []float64{1, 2, 3})
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		c.Send(next, 0, []float64{float64(c.Rank())})
		c.Recv(prev, 0)
		c.Barrier()
		return nil
	}
	live, err := Run(context.Background(), cl, tl, Options{Engine: EngineLive}, prog)
	if err != nil {
		t.Fatal(err)
	}
	des, err := Run(context.Background(), cl, tl, Options{Engine: EngineDES}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range live.RankClocks {
		if math.Abs(live.RankClocks[r]-des.RankClocks[r]) > 1e-9 {
			t.Errorf("rank %d: live %g vs des %g", r, live.RankClocks[r], des.RankClocks[r])
		}
	}
}

func TestGridCollectivesUseHierarchy(t *testing.T) {
	cl := testCluster(t, 50, 50, 50, 50)
	allOneSite := gridModel(t, []int{0, 0, 0, 0})
	twoSites := gridModel(t, []int{0, 0, 1, 1})
	prog := func(c Comm) error {
		c.Barrier()
		c.Bcast(0, []float64{1})
		return nil
	}
	one, err := Run(context.Background(), cl, allOneSite, Options{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(context.Background(), cl, twoSites, Options{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if two.TimeMS <= one.TimeMS+50 {
		t.Errorf("two-site collectives %g should pay the WAN vs %g", two.TimeMS, one.TimeMS)
	}
}
