package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// runMM is a plain MM run that must succeed.
func runMM(t *testing.T, mm MM, cl *cluster.Cluster, m simnet.CostModel, o mpi.Options, spec Spec) (Outcome, *linalg.Matrix) {
	t.Helper()
	out, c, err := mm.run(context.Background(), cl, m, o, spec)
	if err != nil {
		t.Fatalf("MM n=%d: %v", spec.N, err)
	}
	return out, c
}

// mmMaxError is the largest |C - A*B| element against the sequential
// product of the seeded inputs of order n.
func mmMaxError(t *testing.T, n int, seed int64, c *linalg.Matrix) float64 {
	t.Helper()
	ref, err := linalg.MatMul(linalg.RandomMatrix(n, seed), linalg.RandomMatrix(n, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range ref.Data {
		worst = math.Max(worst, math.Abs(ref.Data[i]-c.Data[i]))
	}
	return worst
}

func TestMMComputesProduct(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{1, 2, 7, 32, 100} {
		_, c := runMM(t, MM{}, cl, m, mpi.Options{}, Spec{N: n, Seed: int64(n)})
		if c == nil || c.Rows != n {
			t.Fatalf("n=%d: missing product", n)
		}
		if e := mmMaxError(t, n, int64(n), c); e > 1e-9 {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestMMSymbolicMatchesRealTiming(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	real, _ := runMM(t, MM{}, cl, m, mpi.Options{}, Spec{N: 64, Seed: 2})
	sym, symC := runMM(t, MM{}, cl, m, mpi.Options{}, Spec{N: 64, Seed: 2, Symbolic: true})
	if symC != nil {
		t.Error("symbolic run returned a product")
	}
	if real.Stats.TimeMS != sym.Stats.TimeMS {
		t.Errorf("symbolic time %g != real %g", sym.Stats.TimeMS, real.Stats.TimeMS)
	}
	if real.Stats.Messages != sym.Stats.Messages || real.Stats.BytesMoved != sym.Stats.BytesMoved {
		t.Error("message traffic differs between symbolic and real")
	}
}

func TestMMEnginesAgree(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	live, _ := runMM(t, MM{}, cl, m, mpi.Options{Engine: mpi.EngineLive}, Spec{N: 48, Seed: 5})
	des, _ := runMM(t, MM{}, cl, m, mpi.Options{Engine: mpi.EngineDES}, Spec{N: 48, Seed: 5})
	if math.Abs(live.Stats.TimeMS-des.Stats.TimeMS) > 1e-9 {
		t.Errorf("engines disagree: %g vs %g", live.Stats.TimeMS, des.Stats.TimeMS)
	}
}

func TestMMRejectsNonBlockStrategy(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	if _, err := (MM{Strategy: dist.HetCyclic{}}).Run(context.Background(), cl, m, mpi.Options{}, Spec{N: 20}); err == nil {
		t.Error("cyclic strategy accepted for MM")
	}
}

func TestMMInputValidation(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	if _, err := (MM{}).Run(context.Background(), cl, m, mpi.Options{}, Spec{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMMHeterogeneousDistributionWins(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	spec := Spec{N: 96, Symbolic: true}
	het, _ := runMM(t, MM{}, cl, m, mpi.Options{}, spec)
	hom, _ := runMM(t, MM{Strategy: dist.HomBlock{}}, cl, m, mpi.Options{}, spec)
	if het.Stats.TimeMS >= hom.Stats.TimeMS {
		t.Errorf("het-block %g ms should beat hom-block %g ms", het.Stats.TimeMS, hom.Stats.TimeMS)
	}
}
