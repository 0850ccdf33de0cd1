package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// runJacobi is a plain Jacobi run that must succeed.
func runJacobi(t *testing.T, j Jacobi, cl *cluster.Cluster, m simnet.CostModel, o mpi.Options, spec Spec) (Outcome, []float64) {
	t.Helper()
	out, grid, err := j.run(context.Background(), cl, m, o, spec)
	if err != nil {
		t.Fatalf("Jacobi n=%d: %v", spec.N, err)
	}
	return out, grid
}

// jacobiResidual is the largest change one more relaxation sweep would
// make to an n x n grid: the max |update| a sweep tracks.
func jacobiResidual(g []float64, n int) float64 {
	var r float64
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			idx := i*n + j
			v := 0.25 * (g[idx-1] + g[idx+1] + g[idx-n] + g[idx+n])
			r = math.Max(r, math.Abs(v-g[idx]))
		}
	}
	return r
}

func TestJacobiMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{8, 16, 40} {
		_, grid := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, Spec{N: n, Seed: 3})
		ref, err := jacobiSequential(n, JacobiIters, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if math.Abs(ref[i]-grid[i]) > 1e-12 {
				t.Fatalf("n=%d: grid[%d] = %g, ref %g", n, i, grid[i], ref[i])
			}
		}
	}
}

func TestJacobiConvergesTowardHarmonic(t *testing.T) {
	// With many sweeps the residual must shrink substantially: the run's
	// JacobiIters sweeps against the sequential reference after only 5.
	cl := mmCluster(t)
	m := testModel(t)
	const n = 12
	few, err := jacobiSequential(n, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, many := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, Spec{N: n, Seed: 1})
	if r0, r1 := jacobiResidual(few, n), jacobiResidual(many, n); r1 >= r0/10 {
		t.Errorf("residual did not shrink: %g -> %g", r0, r1)
	}
}

func TestJacobiSymbolicMatchesRealTiming(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	real, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2})
	sym, symGrid := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, Spec{N: 32, Seed: 2, Symbolic: true})
	if symGrid != nil {
		t.Error("symbolic run returned a grid")
	}
	if real.Stats.TimeMS != sym.Stats.TimeMS {
		t.Errorf("symbolic time %g != real %g", sym.Stats.TimeMS, real.Stats.TimeMS)
	}
	if real.Stats.Messages != sym.Stats.Messages || real.Stats.BytesMoved != sym.Stats.BytesMoved {
		t.Error("traffic differs between symbolic and real")
	}
}

func TestJacobiEnginesAgree(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	live, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{Engine: mpi.EngineLive}, Spec{N: 24, Seed: 5})
	des, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{Engine: mpi.EngineDES}, Spec{N: 24, Seed: 5})
	if math.Abs(live.Stats.TimeMS-des.Stats.TimeMS) > 1e-9 {
		t.Errorf("engines disagree: %g vs %g", live.Stats.TimeMS, des.Stats.TimeMS)
	}
}

func TestJacobiValidation(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	if _, err := (Jacobi{}).Run(ctx, cl, m, mpi.Options{}, Spec{N: 2}); err == nil {
		t.Error("n=2 accepted")
	}
	// Grid too small for the rank count: every rank must own >= 1 row.
	big, err := cluster.MMConfig(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Jacobi{}).Run(ctx, big, m, mpi.Options{}, Spec{N: 6}); err == nil {
		t.Error("undersized grid accepted")
	}
	if _, err := jacobiSequential(2, 5, 1); err == nil {
		t.Error("sequential n=2 accepted")
	}
	if _, err := jacobiSequential(10, 0, 1); err == nil {
		t.Error("sequential iters=0 accepted")
	}
}

func TestJacobiWork(t *testing.T) {
	if stencilWork(2, 10) != 0 {
		t.Error("degenerate grid work != 0")
	}
	if got, want := stencilWork(12, 10), 6.0*100*10; got != want {
		t.Errorf("stencilWork = %g, want %g", got, want)
	}
}

func TestJacobiOverheadTracksMeasurement(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	toFn, err := haloOverhead(cl, m, JacobiIters, JacobiCheckEvery)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.MarkedSpeed()
	for _, n := range []int{64, 200, 500} {
		out, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, Spec{N: n, Symbolic: true})
		predicted := out.Work/(DefaultJacobiSustained*c*1e3) + toFn(float64(n))
		rel := math.Abs(predicted-out.Stats.TimeMS) / out.Stats.TimeMS
		if rel > 0.35 {
			t.Errorf("n=%d: predicted %g ms vs measured %g ms (rel %.3f)",
				n, predicted, out.Stats.TimeMS, rel)
		}
	}
}

func TestJacobiOverheadErrors(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	if _, err := haloOverhead(nil, m, 10, 5); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := haloOverhead(cl, nil, 10, 5); err == nil {
		t.Error("nil model accepted")
	}
}

func TestJacobiOverheadGrowsSlowerThanGE(t *testing.T) {
	// The halo pattern's per-sweep communication is independent of p
	// (except the periodic all-reduce), while GE pays a broadcast+barrier
	// proportional to p every iteration. Doubling the system size at a
	// fixed n must therefore inflate GE's critical communication time far
	// more than Jacobi's.
	m := testModel(t)
	c4, err := cluster.MMConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := cluster.MMConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{N: 256, Symbolic: true}
	jacComm := func(cl *cluster.Cluster) float64 {
		out, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, spec)
		return out.Stats.MaxCommMS()
	}
	geComm := func(cl *cluster.Cluster) float64 {
		out, _ := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
		return out.Stats.MaxCommMS()
	}
	jacGrowth := jacComm(c8) / jacComm(c4)
	geGrowth := geComm(c8) / geComm(c4)
	if jacGrowth >= geGrowth {
		t.Errorf("Jacobi comm growth %.3f should be below GE's %.3f", jacGrowth, geGrowth)
	}
	if jacGrowth > 1.8 {
		t.Errorf("Jacobi comm growth %.3f unexpectedly large", jacGrowth)
	}
}

func TestJacobiOverlapIdenticalNumerics(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	spec := Spec{N: 32, Seed: 4}
	base, baseGrid := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, spec)
	over, overGrid := runJacobi(t, Jacobi{Overlap: true}, cl, m, mpi.Options{}, spec)
	for i := range baseGrid {
		if baseGrid[i] != overGrid[i] {
			t.Fatalf("grids differ at %d: %g vs %g", i, baseGrid[i], overGrid[i])
		}
	}
	if over.Stats.TimeMS >= base.Stats.TimeMS {
		t.Errorf("overlap %g should beat bulk-synchronous %g", over.Stats.TimeMS, base.Stats.TimeMS)
	}
}

func TestJacobiOverlapHidesTransfers(t *testing.T) {
	// With big rows (large transfer time) and plenty of interior compute,
	// the overlap should hide most of the per-sweep transfer.
	cl := mmCluster(t)
	m := testModel(t)
	const n = 600
	spec := Spec{N: n, Symbolic: true}
	base, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, spec)
	over, _ := runJacobi(t, Jacobi{Overlap: true}, cl, m, mpi.Options{}, spec)
	saved := base.Stats.TimeMS - over.Stats.TimeMS
	// Interior ranks wait for a full halo round-trip per sweep in the
	// baseline; overlap should reclaim a visible chunk of it.
	perSweepTransfer := m.TransferTime(n * 8)
	if saved < float64(JacobiIters)*perSweepTransfer*0.5 {
		t.Errorf("overlap saved only %g ms (per-sweep transfer %g x %d sweeps)",
			saved, perSweepTransfer, JacobiIters)
	}
}

func TestJacobiOverlapDegenerateBands(t *testing.T) {
	// Bands of a single row force the both-ghosts path; numerics must
	// still match the sequential reference.
	m := testModel(t)
	cl, err := cluster.Uniform("u", 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	// n-2 = 6 interior rows over 6 ranks -> exactly 1 row each.
	const n = 8
	_, grid := runJacobi(t, Jacobi{Overlap: true}, cl, m, mpi.Options{}, Spec{N: n, Seed: 2})
	ref, err := jacobiSequential(n, JacobiIters, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(ref[i]-grid[i]) > 1e-12 {
			t.Fatalf("grid[%d] = %g, ref %g", i, grid[i], ref[i])
		}
	}
}
