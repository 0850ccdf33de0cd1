package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
)

func TestMGMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{8, 16, 40} {
		_, grid, err := MG{}.run(context.Background(), cl, m, mpi.Options{}, Spec{N: n, Seed: 3})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := mgSequential(n, MGIters, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if ref[i] != grid[i] {
				t.Fatalf("n=%d: grid[%d] = %g, ref %g", n, i, grid[i], ref[i])
			}
		}
	}
}

func TestMGDampsInterior(t *testing.T) {
	// The ω=1/2 damped sweep is a contraction toward the harmonic
	// extension of the boundary: successive-sweep changes must shrink.
	delta := func(iters int) float64 {
		a, err := mgSequential(16, iters, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mgSequential(16, iters+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > v {
				v = d
			}
		}
		return v
	}
	if early, late := delta(5), delta(200); late >= early/10 {
		t.Errorf("sweep-to-sweep change did not damp: %g -> %g", early, late)
	}
}

func TestMGSymbolicMatchesRealTiming(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	real, _, err := MG{}.run(ctx, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sym, symGrid, err := MG{}.run(ctx, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2, Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	if symGrid != nil {
		t.Error("symbolic run returned a grid")
	}
	if real.Stats.TimeMS != sym.Stats.TimeMS || real.VirtualTime != sym.VirtualTime {
		t.Errorf("symbolic time %g/%g != real %g/%g",
			sym.Stats.TimeMS, sym.VirtualTime, real.Stats.TimeMS, real.VirtualTime)
	}
	if real.Stats.Messages != sym.Stats.Messages || real.Stats.BytesMoved != sym.Stats.BytesMoved {
		t.Error("traffic differs between symbolic and real")
	}
}

func TestMGEnginesAgree(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	spec := Spec{N: 24, Seed: 5}
	live, err := MG{}.Run(context.Background(), cl, m, mpi.Options{Engine: mpi.EngineLive}, spec)
	if err != nil {
		t.Fatal(err)
	}
	des, err := MG{}.Run(context.Background(), cl, m, mpi.Options{Engine: mpi.EngineDES}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(live.Stats.TimeMS-des.Stats.TimeMS) > 1e-9 {
		t.Errorf("engines disagree: %g vs %g", live.Stats.TimeMS, des.Stats.TimeMS)
	}
}

func TestMGRecoveredBitwiseEqual(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	spec := Spec{N: 32, Seed: 9}
	base, baseGrid, err := MG{}.run(ctx, cl, m, mpi.Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 4, Crashes: []faults.Crash{
		{Rank: cl.Size() - 1, AtMS: 0.5 * base.Stats.TimeMS},
	}}
	_, _, inj, err := plan.Apply(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	out, grid, err := MG{}.run(ctx, cl, m, mpi.Options{Faults: inj}, recovering(spec, 10))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Attempts < 2 {
		t.Errorf("Attempts = %d, want a rollback", out.Stats.Attempts)
	}
	if len(grid) != len(baseGrid) {
		t.Fatalf("recovered grid len %d, undisturbed %d", len(grid), len(baseGrid))
	}
	for i := range baseGrid {
		if grid[i] != baseGrid[i] {
			t.Fatalf("grid[%d] = %g, undisturbed %g: recovery changed the numerics", i, grid[i], baseGrid[i])
		}
	}
}

func TestMGValidation(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	if _, err := (MG{}).Run(ctx, cl, m, mpi.Options{}, Spec{N: 2}); err == nil {
		t.Error("n=2 accepted")
	}
	big, err := cluster.MMConfig(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (MG{}).Run(ctx, big, m, mpi.Options{}, Spec{N: 6}); err == nil {
		t.Error("undersized grid accepted")
	}
	if _, err := mgSequential(2, 5, 1); err == nil {
		t.Error("sequential n=2 accepted")
	}
	if _, err := mgSequential(10, 0, 1); err == nil {
		t.Error("sequential iters=0 accepted")
	}
}

func TestMGWork(t *testing.T) {
	if (MG{}).WorkAt(2) != 0 {
		t.Error("degenerate grid work != 0")
	}
	if got, want := (MG{}).WorkAt(12), 6.0*100*MGIters; got != want {
		t.Errorf("MG WorkAt(12) = %g, want %g", got, want)
	}
}
