package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpi"
)

func TestCGMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{8, 16, 40} {
		_, x, err := CG{}.run(context.Background(), cl, m, mpi.Options{}, Spec{N: n, Seed: 3})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := cgSequential(n, CGIters, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(x) {
			t.Fatalf("n=%d: solution length %d, ref %d", n, len(x), len(ref))
		}
		for i := range ref {
			if ref[i] != x[i] {
				t.Fatalf("n=%d: x[%d] = %g, ref %g", n, i, x[i], ref[i])
			}
		}
	}
}

func TestCGSolvesLaplaceSystem(t *testing.T) {
	// After enough iterations the iterate must satisfy A x = b to high
	// accuracy: CG on the SPD 5-point operator converges.
	n := 12
	w := n - 2
	x, err := cgSequential(n, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := cgRHS(n, 5)
	var worst float64
	at := func(i, j int) float64 {
		if i < 0 || i >= w || j < 0 || j >= w {
			return 0
		}
		return x[i*w+j]
	}
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			ax := 4*at(i, j) - at(i, j-1) - at(i, j+1) - at(i-1, j) - at(i+1, j)
			if d := math.Abs(ax - b[i*w+j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-8 {
		t.Errorf("residual ||Ax-b||_inf = %g after 200 iterations", worst)
	}
}

func TestCGSymbolicMatchesRealTiming(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	real, _, err := CG{}.run(ctx, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sym, symX, err := CG{}.run(ctx, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2, Symbolic: true})
	if err != nil {
		t.Fatal(err)
	}
	if symX != nil {
		t.Error("symbolic run returned a solution")
	}
	if real.Stats.TimeMS != sym.Stats.TimeMS || real.VirtualTime != sym.VirtualTime {
		t.Errorf("symbolic time %g/%g != real %g/%g",
			sym.Stats.TimeMS, sym.VirtualTime, real.Stats.TimeMS, real.VirtualTime)
	}
	if real.Stats.Messages != sym.Stats.Messages || real.Stats.BytesMoved != sym.Stats.BytesMoved {
		t.Error("traffic differs between symbolic and real")
	}
}

func TestCGRecoveredBitwiseEqual(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	spec := Spec{N: 24, Seed: 7}
	base, baseX, err := CG{}.run(ctx, cl, m, mpi.Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 11, Crashes: []faults.Crash{
		{Rank: cl.Size() - 1, AtMS: 0.5 * base.Stats.TimeMS},
	}}
	_, _, inj, err := plan.Apply(cl, m)
	if err != nil {
		t.Fatal(err)
	}
	out, x, err := CG{}.run(ctx, cl, m, mpi.Options{Faults: inj}, recovering(spec, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Attempts < 2 {
		t.Errorf("Attempts = %d, want a rollback", out.Stats.Attempts)
	}
	for i := range baseX {
		if baseX[i] != x[i] {
			t.Fatalf("x[%d] = %g, undisturbed %g", i, x[i], baseX[i])
		}
	}
}
