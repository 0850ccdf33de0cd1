package workload

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// crashInjector is a minimal mpi.FaultInjector that only crashes ranks.
type crashInjector struct{ at map[int]float64 }

func (in crashInjector) CrashTimeMS(r int) (float64, bool) { t, ok := in.at[r]; return t, ok }
func (in crashInjector) DropSend(int, int, int) bool       { return false }
func (in crashInjector) RetryDelayMS(int) float64          { return 1 }
func (in crashInjector) MaxSendAttempts() int              { return 8 }

var recoverEngines = []struct {
	name string
	opts mpi.Options
}{
	{"live", mpi.Options{Engine: mpi.EngineLive}},
	{"des", mpi.Options{Engine: mpi.EngineDES}},
}

func TestGERecoveredHealthyMatchesPlain(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	spec := Spec{N: 40, Seed: 3}
	plain, plainX := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	out, rec, x, err := GE{}.run(context.Background(), cl, m, mpi.Options{}, spec, &RecoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovered || rec.Attempts != 1 || rec.Checkpoints != 0 {
		t.Errorf("healthy run shows recovery bookkeeping: %+v", rec)
	}
	if out.Stats.TimeMS != plain.Stats.TimeMS {
		t.Errorf("healthy recovered TimeMS %.9f != plain %.9f", out.Stats.TimeMS, plain.Stats.TimeMS)
	}
	if !reflect.DeepEqual(x, plainX) {
		t.Error("healthy recovered solution differs from the plain run")
	}
}

// TestGERecoveredCrashCompletes is the recovery acceptance scenario: a GE
// run with a mid-run crash from the fault plan completes with the correct
// numerical result on both engines, with bit-identical virtual times.
func TestGERecoveredCrashCompletes(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	const n = 60
	spec := Spec{N: n, Seed: 7, PinnedSpeeds: cl.Speeds()}
	plain, plainX := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	inj := crashInjector{at: map[int]float64{2: 0.45 * plain.Stats.TimeMS}}
	rcfg := &RecoveryConfig{IntervalSteps: 10}

	var recs []mpi.RecoveredResult
	var xs [][]float64
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		_, rec, x, err := GE{}.run(context.Background(), cl, m, mo, spec, rcfg)
		if err != nil {
			t.Fatalf("%s: recovered GE failed: %v", e.name, err)
		}
		if !rec.Recovered {
			t.Fatalf("%s: crash at %.3f ms did not trigger recovery (T=%.3f)", e.name, 0.45*plain.Stats.TimeMS, rec.TimeMS)
		}
		xs = append(xs, x)
		recs = append(recs, rec)
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("recovered results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
	}

	x := xs[0]
	// Replay-exact numerics: the recovered solution is bit-identical to
	// the undisturbed run's, and solves the system.
	if !reflect.DeepEqual(x, plainX) {
		t.Error("recovered solution differs from the undisturbed run")
	}
	if r := geResidual(t, n, 7, x); r > 1e-8*n {
		t.Errorf("recovered residual %g too large", r)
	}
	ref, err := linalg.SolveGaussNoPivot(linalg.RandomDiagDominant(n, 7), linalg.RandomVector(n, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(ref[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g, sequential reference %g", i, x[i], ref[i])
		}
	}
	// Recovery costs time: the recovered run is slower than undisturbed.
	if recs[0].TimeMS <= plain.Stats.TimeMS {
		t.Errorf("recovered makespan %.3f not beyond undisturbed %.3f", recs[0].TimeMS, plain.Stats.TimeMS)
	}
	if recs[0].Checkpoints == 0 {
		t.Error("no checkpoint committed despite IntervalSteps=10")
	}
}

func TestGERecoveredScratchRestartCompletes(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	spec := Spec{N: 30, Seed: 11}
	plain, plainX := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	mo := mpi.Options{Faults: crashInjector{at: map[int]float64{0: 0.5 * plain.Stats.TimeMS}}}
	_, rec, x, err := GE{}.run(context.Background(), cl, m, mo, spec, &RecoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered || rec.Checkpoints != 0 {
		t.Fatalf("want checkpoint-free recovery, got %+v", rec)
	}
	// Rank 0 died; the survivors redid everything and still got the
	// exact solution.
	if !reflect.DeepEqual(x, plainX) {
		t.Error("scratch-restarted solution differs from the undisturbed run")
	}
}

func TestMMRecoveredCrashComputesProduct(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	const n = 48
	spec := Spec{N: n, Seed: 5, PinnedSpeeds: cl.Speeds()}
	plain, plainC := runMM(t, MM{}, cl, m, mpi.Options{}, spec)
	inj := crashInjector{at: map[int]float64{1: 0.5 * plain.Stats.TimeMS}}
	rcfg := &RecoveryConfig{IntervalSteps: 4}

	var recs []mpi.RecoveredResult
	var cs []*linalg.Matrix
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		_, rec, c, err := MM{}.run(context.Background(), cl, m, mo, spec, rcfg)
		if err != nil {
			t.Fatalf("%s: recovered MM failed: %v", e.name, err)
		}
		if !rec.Recovered {
			t.Fatalf("%s: crash did not trigger recovery", e.name)
		}
		cs = append(cs, c)
		recs = append(recs, rec)
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("recovered results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
	}
	if got, want := mmMaxError(t, n, 5, cs[0]), mmMaxError(t, n, 5, plainC); got != want {
		t.Errorf("recovered max error %g, undisturbed %g", got, want)
	}
	if !reflect.DeepEqual(cs[0].Data, plainC.Data) {
		t.Error("recovered product differs from the undisturbed run")
	}
}

func TestJacobiRecoveredCrashMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	const n = 32
	spec := Spec{N: n, Seed: 9}
	plain, _ := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, spec)
	inj := crashInjector{at: map[int]float64{3: 0.5 * plain.Stats.TimeMS}}
	rcfg := &RecoveryConfig{IntervalSteps: 4}

	var recs []mpi.RecoveredResult
	var grids [][]float64
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		_, rec, grid, err := Jacobi{}.run(context.Background(), cl, m, mo, spec, rcfg)
		if err != nil {
			t.Fatalf("%s: recovered Jacobi failed: %v", e.name, err)
		}
		if !rec.Recovered {
			t.Fatalf("%s: crash did not trigger recovery", e.name)
		}
		grids = append(grids, grid)
		recs = append(recs, rec)
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("recovered results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
	}
	ref, err := jacobiSequential(n, JacobiIters, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grids[0], ref) {
		t.Error("recovered grid differs from the sequential reference")
	}
}

func TestSurvivorStrategyPinnedSubset(t *testing.T) {
	p := dist.Pinned{Speeds: []float64{10, 20, 30, 40}, Inner: dist.HetBlock{}}
	got := survivorStrategy(p, []int{0, 2, 3})
	sub, ok := got.(dist.Pinned)
	if !ok {
		t.Fatalf("survivorStrategy returned %T, want dist.Pinned", got)
	}
	if !reflect.DeepEqual(sub.Speeds, []float64{10, 30, 40}) {
		t.Errorf("subset speeds %v, want [10 30 40]", sub.Speeds)
	}
	// Non-pinned strategies pass through untouched.
	if _, ok := survivorStrategy(dist.HetCyclic{}, []int{0, 1}).(dist.HetCyclic); !ok {
		t.Error("non-pinned strategy was not passed through")
	}
}

// TestJacobiReconfiguredShrinkGrowBitwiseEqual drives a planned shrink
// (rank 2 drained mid-run) followed by a planned grow (it rejoins): the
// relaxed grid must stay bitwise identical to the undisturbed run — the
// reconfiguration seam only moves ownership, never values — and the two
// engines must agree on every recovered number.
func TestJacobiReconfiguredShrinkGrowBitwiseEqual(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	spec := Spec{N: 32, Seed: 9}
	plain, plainGrid := runJacobi(t, Jacobi{}, cl, m, mpi.Options{}, spec)
	rcfg := &RecoveryConfig{
		IntervalSteps: 2,
		Plan: []mpi.ReconfigEvent{
			{AtMS: 0.35 * plain.Stats.TimeMS, Ranks: []int{0, 1, 3}},
			{AtMS: 0.80 * plain.Stats.TimeMS, Ranks: []int{0, 1, 2, 3}},
		},
	}

	var recs []mpi.RecoveredResult
	var grids [][]float64
	for _, e := range recoverEngines {
		_, rec, grid, err := Jacobi{}.run(context.Background(), cl, m, e.opts, spec, rcfg)
		if err != nil {
			t.Fatalf("%s: reconfigured Jacobi failed: %v", e.name, err)
		}
		if rec.Reconfigs != 2 || rec.Recovered {
			t.Fatalf("%s: want 2 planned reconfigs and no recovery, got %+v", e.name, rec)
		}
		grids = append(grids, grid)
		recs = append(recs, rec)
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("reconfigured results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
	}
	if !reflect.DeepEqual(grids[0], plainGrid) {
		t.Error("reconfigured grid differs from the undisturbed run")
	}
	// Elasticity costs time (rollbacks + reconfig charges), never answers.
	if recs[0].TimeMS <= plain.Stats.TimeMS {
		t.Errorf("reconfigured makespan %.3f not beyond undisturbed %.3f", recs[0].TimeMS, plain.Stats.TimeMS)
	}
}

// TestGEReconfiguredGrowBitwiseEqual grows a GE run mid-elimination from
// a planned 2-rank start to the full cluster: the solved system must be
// bitwise identical to the undisturbed full-cluster run.
func TestGEReconfiguredGrowBitwiseEqual(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	const n = 60
	g := GE{Strategy: dist.HetBlock{}}
	spec := Spec{N: n, Seed: 3, PinnedSpeeds: cl.Speeds()}
	_, plainX := runGE(t, g, cl, m, mpi.Options{}, spec)
	// First pass: the run planned onto {1,2} from the start, to learn how
	// long the narrow phase lasts (GE at this n is comm-bound, so the
	// narrow run is FASTER than the full cluster — the grow instant must
	// come from its own clock, not the full run's).
	narrow := &RecoveryConfig{
		IntervalSteps: 10,
		Plan:          []mpi.ReconfigEvent{{AtMS: 0, Ranks: []int{1, 2}}},
	}
	_, nrec, _, err := g.run(context.Background(), cl, m, recoverEngines[1].opts, spec, narrow)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := &RecoveryConfig{
		IntervalSteps: 10,
		Plan: []mpi.ReconfigEvent{
			{AtMS: 0, Ranks: []int{1, 2}},
			{AtMS: 0.5 * nrec.TimeMS, Ranks: []int{0, 1, 2, 3}},
		},
	}
	var recs []mpi.RecoveredResult
	var xs [][]float64
	for _, e := range recoverEngines {
		_, rec, x, err := g.run(context.Background(), cl, m, e.opts, spec, rcfg)
		if err != nil {
			t.Fatalf("%s: reconfigured GE failed: %v", e.name, err)
		}
		if rec.Reconfigs != 2 || rec.Recovered {
			t.Fatalf("%s: want 2 planned reconfigs and no recovery, got %+v", e.name, rec)
		}
		xs = append(xs, x)
		recs = append(recs, rec)
	}
	if !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("reconfigured results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
	}
	if !reflect.DeepEqual(xs[0], plainX) {
		t.Error("reconfigured solution differs from the undisturbed run")
	}
	if got, want := geResidual(t, n, 3, xs[0]), geResidual(t, n, 3, plainX); got != want {
		t.Errorf("reconfigured residual %g, undisturbed %g", got, want)
	}
}
