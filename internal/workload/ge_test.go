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

// The internal tests drive each algorithm's unexported run, which also
// returns rank 0's numeric output, so numeric diagnostics the Outcome
// does not carry (residuals, max errors) are computed here from it.

func testModel(t *testing.T) simnet.CostModel {
	t.Helper()
	m, err := simnet.NewParamModel("sunwulf", simnet.Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func clusterGE(p int) (*cluster.Cluster, error) { return cluster.GEConfig(p) }
func clusterMM(p int) (*cluster.Cluster, error) { return cluster.MMConfig(p) }

func geCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.GEConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mmCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.MMConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// speedEff computes E_s = W / (T · C): W in flops, T in ms, C in Mflops
// (= 1e3 flops/ms).
func speedEff(work, timeMS, markedMflops float64) float64 {
	return work / (timeMS * markedMflops * 1e3)
}

// geResidual is ||Ax-b||_inf for the seeded GE system of order n.
func geResidual(t *testing.T, n int, seed int64, x []float64) float64 {
	t.Helper()
	r, err := linalg.ResidualInf(linalg.RandomDiagDominant(n, seed), x, linalg.RandomVector(n, seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runGE is a plain GE run that must succeed.
func runGE(t *testing.T, g GE, cl *cluster.Cluster, m simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64) {
	t.Helper()
	out, x, err := g.run(context.Background(), cl, m, o, spec)
	if err != nil {
		t.Fatalf("GE n=%d: %v", spec.N, err)
	}
	return out, x
}

func TestGESolvesSystem(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	for _, n := range []int{1, 2, 5, 17, 60} {
		_, x := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: n, Seed: int64(n)})
		if len(x) != n {
			t.Fatalf("n=%d: |x| = %d", n, len(x))
		}
		if r := geResidual(t, n, int64(n), x); r > 1e-8*float64(n) {
			t.Errorf("n=%d: residual %g", n, r)
		}
		// Matches the sequential no-pivot reference.
		a := linalg.RandomDiagDominant(n, int64(n))
		b := linalg.RandomVector(n, int64(n)+1)
		ref, err := linalg.SolveGaussNoPivot(a, b)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for i := range ref {
			if math.Abs(ref[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %g, ref %g", n, i, x[i], ref[i])
			}
		}
	}
}

func TestGEBothEnginesAgree(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	live, liveX := runGE(t, GE{}, cl, m, mpi.Options{Engine: mpi.EngineLive}, Spec{N: 40, Seed: 3})
	des, desX := runGE(t, GE{}, cl, m, mpi.Options{Engine: mpi.EngineDES}, Spec{N: 40, Seed: 3})
	if math.Abs(live.Stats.TimeMS-des.Stats.TimeMS) > 1e-9 {
		t.Errorf("engines disagree: live %g vs des %g", live.Stats.TimeMS, des.Stats.TimeMS)
	}
	for i := range liveX {
		if liveX[i] != desX[i] {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestGESymbolicMatchesRealTiming(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	real, _ := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: 50, Seed: 1})
	sym, symX := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: 50, Seed: 1, Symbolic: true})
	if symX != nil {
		t.Error("symbolic run returned a solution")
	}
	if real.Stats.TimeMS != sym.Stats.TimeMS {
		t.Errorf("symbolic time %g != real %g", sym.Stats.TimeMS, real.Stats.TimeMS)
	}
	if real.Stats.Messages != sym.Stats.Messages || real.Stats.BytesMoved != sym.Stats.BytesMoved {
		t.Errorf("message traffic differs: real %d/%d, sym %d/%d",
			real.Stats.Messages, real.Stats.BytesMoved, sym.Stats.Messages, sym.Stats.BytesMoved)
	}
	for r := range real.Stats.RankClocks {
		if real.Stats.RankClocks[r] != sym.Stats.RankClocks[r] {
			t.Fatalf("rank %d clock differs between symbolic and real", r)
		}
	}
}

func TestGEInputValidation(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	if _, err := (GE{}).Run(context.Background(), cl, m, mpi.Options{}, Spec{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestGEDeterministic(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	var first Outcome
	var firstResid float64
	for i := 0; i < 5; i++ {
		out, x := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: 30, Seed: 9})
		resid := geResidual(t, 30, 9, x)
		if i == 0 {
			first, firstResid = out, resid
			continue
		}
		if out.Stats.TimeMS != first.Stats.TimeMS || resid != firstResid {
			t.Fatal("GE run not deterministic")
		}
	}
}

func TestGEHeterogeneousDistributionWins(t *testing.T) {
	// On a heterogeneous cluster, speed-aware distribution must beat the
	// speed-blind one (the paper's motivation for heterogeneous cyclic).
	cl := geCluster(t)
	m := testModel(t)
	spec := Spec{N: 120, Symbolic: true}
	het, _ := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	hom, _ := runGE(t, GE{Strategy: dist.HomCyclic{}}, cl, m, mpi.Options{}, spec)
	if het.Stats.TimeMS >= hom.Stats.TimeMS {
		t.Errorf("het-cyclic %g ms should beat hom-cyclic %g ms", het.Stats.TimeMS, hom.Stats.TimeMS)
	}
}

func TestGEEfficiencyIncreasesWithN(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	prev := -1.0
	for _, n := range []int{50, 150, 400} {
		out, _ := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: n, Symbolic: true})
		e := speedEff(out.Work, out.Stats.TimeMS, cl.MarkedSpeed())
		if e <= prev {
			t.Errorf("E_s(%d) = %g not increasing (prev %g)", n, e, prev)
		}
		if e <= 0 || e >= 1 {
			t.Errorf("E_s(%d) = %g out of (0,1)", n, e)
		}
		prev = e
	}
}

func TestMMMoreScalableThanGE(t *testing.T) {
	// §4.4.3: at equal N and comparable machines, MM suffers much less
	// overhead per unit work, so its speed-efficiency is higher at large N.
	m := testModel(t)
	ge, _ := runGE(t, GE{}, geCluster(t), m, mpi.Options{}, Spec{N: 300, Symbolic: true})
	mm, _ := runMM(t, MM{}, mmCluster(t), m, mpi.Options{}, Spec{N: 300, Symbolic: true})
	geEff := speedEff(ge.Work, ge.Stats.TimeMS, geCluster(t).MarkedSpeed())
	mmEff := speedEff(mm.Work, mm.Stats.TimeMS, mmCluster(t).MarkedSpeed())
	if mmEff <= geEff {
		t.Errorf("MM efficiency %g should exceed GE %g at N=300", mmEff, geEff)
	}
}

func TestWorkPolynomials(t *testing.T) {
	if w := (MM{}).WorkAt(100); w != 2e6 {
		t.Errorf("MM WorkAt(100) = %g", w)
	}
	if w := (GE{}).WorkAt(100); w <= 2.0/3.0*1e6 {
		t.Errorf("GE WorkAt(100) = %g too small", w)
	}
}

func TestGESequentialPortionChargedAtRoot(t *testing.T) {
	// Back substitution happens at rank 0 only: its compute time must
	// exceed any other rank's for a configuration where rank 0 is the
	// slowest-but-one... simply check rank 0 computes the extra N² flops.
	cl, err := cluster.Uniform("u", 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	out, _ := runGE(t, GE{}, cl, m, mpi.Options{}, Spec{N: 80, Symbolic: true})
	maxOther := 0.0
	for r := 1; r < 4; r++ {
		if out.Stats.ComputeMS[r] > maxOther {
			maxOther = out.Stats.ComputeMS[r]
		}
	}
	if out.Stats.ComputeMS[0] <= maxOther {
		t.Errorf("rank0 compute %g should exceed peers' %g (sequential back substitution)",
			out.Stats.ComputeMS[0], maxOther)
	}
}

func TestGEPivotBcastVariantsCorrect(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	spec := Spec{N: 40, Seed: 6}
	ref, refX := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	for _, impl := range []PivotBcast{PivotBcastTree, PivotBcastLinear} {
		out, x := runGE(t, GE{Pivot: impl}, cl, m, mpi.Options{}, spec)
		for i := range refX {
			if x[i] != refX[i] {
				t.Fatalf("impl %v: solution differs at %d", impl, i)
			}
		}
		if out.Stats.TimeMS == ref.Stats.TimeMS {
			t.Errorf("impl %v: timing identical to model broadcast — variant not exercised", impl)
		}
	}
}

func TestGETreeBcastWinsAtScale(t *testing.T) {
	// With 17 ranks, the flat broadcast costs ~16 sequential sends per
	// pivot; the binomial tree ~4 rounds. The measured times must reflect
	// that ordering decisively.
	cl, err := cluster.GEConfig(16)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t)
	run := func(impl PivotBcast) float64 {
		out, _ := runGE(t, GE{Pivot: impl}, cl, m, mpi.Options{}, Spec{N: 400, Symbolic: true})
		return out.Stats.TimeMS
	}
	flat := run(PivotBcastLinear)
	tree := run(PivotBcastTree)
	// The per-iteration barrier (0.39·p) is common to both, so the total
	// ratio is diluted; still expect a decisive win.
	if tree >= flat*0.75 {
		t.Errorf("tree %g should be well below flat %g", tree, flat)
	}
}
