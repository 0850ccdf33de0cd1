package workload

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
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

// recovering returns spec set to run under checkpoint/rollback recovery,
// checkpointing every steps steps.
func recovering(spec Spec, steps int) Spec {
	spec.Recover, spec.CkptSteps = true, steps
	return spec
}

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
	out, x, err := GE{}.run(context.Background(), cl, m, mpi.Options{}, recovering(spec, 0))
	if err != nil {
		t.Fatal(err)
	}
	for label, st := range map[string]mpi.Result{"plain": plain.Stats, "healthy recovered": out.Stats} {
		if st.Attempts != 1 || st.Checkpoints != 0 || st.CheckpointMS != 0 || st.Events != nil {
			t.Errorf("%s run shows recovery bookkeeping: %+v", label, st)
		}
	}
	if !reflect.DeepEqual(out.Stats, plain.Stats) {
		t.Errorf("healthy recovered stats differ from the plain run:\nrecovered: %+v\nplain:     %+v", out.Stats, plain.Stats)
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

	var recs []mpi.Result
	var xs [][]float64
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		out, x, err := GE{}.run(context.Background(), cl, m, mo, recovering(spec, 10))
		if err != nil {
			t.Fatalf("%s: recovered GE failed: %v", e.name, err)
		}
		rec := out.Stats
		if rec.Attempts < 2 {
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
		t.Error("no checkpoint committed despite CkptSteps=10")
	}
}

func TestGERecoveredScratchRestartCompletes(t *testing.T) {
	cl := geCluster(t)
	m := testModel(t)
	spec := Spec{N: 30, Seed: 11}
	plain, plainX := runGE(t, GE{}, cl, m, mpi.Options{}, spec)
	mo := mpi.Options{Faults: crashInjector{at: map[int]float64{0: 0.5 * plain.Stats.TimeMS}}}
	out, x, err := GE{}.run(context.Background(), cl, m, mo, recovering(spec, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rec := out.Stats; rec.Attempts < 2 || rec.Checkpoints != 0 {
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

	var recs []mpi.Result
	var cs []*linalg.Matrix
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		out, c, err := MM{}.run(context.Background(), cl, m, mo, recovering(spec, 4))
		if err != nil {
			t.Fatalf("%s: recovered MM failed: %v", e.name, err)
		}
		rec := out.Stats
		if rec.Attempts < 2 {
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

	var recs []mpi.Result
	var grids [][]float64
	for _, e := range recoverEngines {
		mo := e.opts
		mo.Faults = inj
		out, grid, err := Jacobi{}.run(context.Background(), cl, m, mo, recovering(spec, 4))
		if err != nil {
			t.Fatalf("%s: recovered Jacobi failed: %v", e.name, err)
		}
		rec := out.Stats
		if rec.Attempts < 2 {
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

// TestRecoveredSecondCrashResumesSameSnapshot strikes the replay of a
// crashed run again before it commits its next checkpoint, so two
// attempts resume from one committed snapshot. The answer must still be
// bitwise the undisturbed run's: the snapshot a resume reads is the
// very header and body a rank saved (Save takes ownership, commit does
// not copy), so no attempt may write into what a later attempt resumes
// from. Jacobi
// and CG are the checkpointing workloads of the job streams.
func TestRecoveredSecondCrashResumesSameSnapshot(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(mpi.Options, Spec) (Outcome, []float64, error)
	}{
		{"jacobi", func(o mpi.Options, s Spec) (Outcome, []float64, error) {
			return Jacobi{}.run(ctx, cl, m, o, s)
		}},
		{"cg", func(o mpi.Options, s Spec) (Outcome, []float64, error) {
			return CG{}.run(ctx, cl, m, o, s)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{N: 32, Seed: 5, PinnedSpeeds: cl.Speeds()}
			base, baseX, err := tc.run(mpi.Options{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			rspec := recovering(spec, 4)
			first := map[int]float64{3: 0.5 * base.Stats.TimeMS}
			onceOut, _, err := tc.run(mpi.Options{Faults: crashInjector{at: first}}, rspec)
			if err != nil {
				t.Fatal(err)
			}
			once := onceOut.Stats
			if len(once.Events) != 1 || once.Events[0].ResumeSeq < 0 {
				t.Fatalf("first crash must resume from a committed snapshot: %+v", once.Events)
			}
			// Rank 1 dies just after the replay starts, long before the
			// replay can finish another CkptSteps steps.
			twice := map[int]float64{3: first[3], 1: once.Events[0].ResumeMS + 1e-3*base.Stats.TimeMS}
			var recs []mpi.Result
			for _, e := range recoverEngines {
				mo := e.opts
				mo.Faults = crashInjector{at: twice}
				out, x, err := tc.run(mo, rspec)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				rec := out.Stats
				if len(rec.Events) != 2 || rec.Events[1].ResumeSeq != rec.Events[0].ResumeSeq {
					t.Fatalf("%s: want two rollbacks to one snapshot, got %+v", e.name, rec.Events)
				}
				if out.Work != base.Work || out.Check != base.Check || !reflect.DeepEqual(x, baseX) {
					t.Errorf("%s: twice-recovered answer differs from the undisturbed run", e.name)
				}
				recs = append(recs, rec)
			}
			if !reflect.DeepEqual(recs[0], recs[1]) {
				t.Errorf("recovered results differ across engines:\nlive: %+v\ndes:  %+v", recs[0], recs[1])
			}
		})
	}
}

// TestCheckpointMSDeterministic pins mpi.Result.CheckpointMS to its
// last bit across engines and live reruns: every rank's checkpoint
// writes are summed per rank and then in rank order, never in the order
// the engine happens to run the ranks. The setup is the p = 7 rung at
// N = 23 with rank 6 crashing at half the makespan.
func TestCheckpointMSDeterministic(t *testing.T) {
	m := testModel(t)
	ctx := context.Background()
	const p = 7
	spec := Spec{N: 23, Seed: 7}
	for _, w := range All() {
		t.Run(w.Name(), func(t *testing.T) {
			cl, err := w.ClusterLadder(p)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := w.Run(ctx, cl, m, mpi.Options{Engine: mpi.EngineDES}, spec)
			if err != nil {
				t.Fatal(err)
			}
			crash := crashInjector{at: map[int]float64{p - 1: 0.5 * plain.Stats.TimeMS}}
			engines := []mpi.Engine{mpi.EngineDES, mpi.EngineSymbolic}
			for range 10 {
				engines = append(engines, mpi.EngineLive)
			}
			var want float64
			for i, e := range engines {
				out, err := w.Run(ctx, cl, m, mpi.Options{Engine: e, Faults: crash}, recovering(spec, 3))
				if err != nil {
					t.Fatalf("%v: %v", e, err)
				}
				rec := out.Stats
				if rec.Checkpoints == 0 {
					t.Fatalf("%v: no checkpoint committed", e)
				}
				if i == 0 {
					want = rec.CheckpointMS
				} else if rec.CheckpointMS != want {
					t.Fatalf("%v run %d CheckpointMS = %v, des %v", e, i, rec.CheckpointMS, want)
				}
			}
		})
	}
}

// TestRecoveredRunAbandoned crashes every rank of a supervised run: the
// last rank at half the plain makespan, which rolls the run back, and all the
// survivors just after the replay resumes, so that replay and any later
// one fail until no rank is left. Every workload on every engine must
// give up with an error wrapping mpi.ErrRecoveryFailed and still fill in
// Stats — the attempts, a rollback after each failed attempt but the
// last, and an abandonment instant no earlier than the last crash —
// because the job stream prices an abandoned lease from exactly those
// fields.
func TestRecoveredRunAbandoned(t *testing.T) {
	m := testModel(t)
	ctx := context.Background()
	spec := recovering(Spec{N: 23, Seed: 7}, 5)
	for _, w := range All() {
		t.Run(w.Name(), func(t *testing.T) {
			cl, err := w.ClusterLadder(4)
			if err != nil {
				t.Fatal(err)
			}
			p := cl.Size()
			plain, err := w.Run(ctx, cl, m, mpi.Options{}, Spec{N: spec.N, Seed: spec.Seed})
			if err != nil {
				t.Fatal(err)
			}
			at := map[int]float64{p - 1: 0.5 * plain.Stats.TimeMS}
			once, err := w.Run(ctx, cl, m, mpi.Options{Faults: crashInjector{at: at}}, spec)
			if err != nil || len(once.Stats.Events) != 1 {
				t.Fatalf("one crash must roll back once: err %v, %+v", err, once.Stats)
			}
			resume := once.Stats.Events[0].ResumeMS
			late := resume + 1e-3*plain.Stats.TimeMS
			for r := 0; r < p-1; r++ {
				at[r] = late
			}
			var stats []mpi.Result
			for _, e := range []mpi.Engine{mpi.EngineLive, mpi.EngineDES, mpi.EngineSymbolic} {
				out, err := w.Run(ctx, cl, m, mpi.Options{Engine: e, Faults: crashInjector{at: at}}, spec)
				if !errors.Is(err, mpi.ErrRecoveryFailed) {
					t.Fatalf("%v: err = %v, want one wrapping mpi.ErrRecoveryFailed", e, err)
				}
				st := out.Stats
				if st.Attempts < 2 || len(st.Events) != st.Attempts-1 || st.Events[0].ResumeMS != resume {
					t.Fatalf("%v: want a rollback to %v and one after every failed attempt but the last, got %+v", e, resume, st)
				}
				if got := st.FailedAtMS(); got < late {
					t.Errorf("%v: FailedAtMS() = %v, before the last crash at %v", e, got, late)
				}
				stats = append(stats, st)
			}
			for i := 1; i < len(stats); i++ {
				if !reflect.DeepEqual(stats[i], stats[0]) {
					t.Errorf("abandoned stats differ across engines:\n%+v\n%+v", stats[0], stats[i])
				}
			}
		})
	}
}

// TestRunRefusesBadCheckpointCadence: a negative cadence, or a cadence
// on a plain run, is refused by every workload with an error that names
// the field.
func TestRunRefusesBadCheckpointCadence(t *testing.T) {
	m := testModel(t)
	ctx := context.Background()
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{N: 23, Recover: true, CkptSteps: -1}, "Spec.CkptSteps -1 < 0"},
		{Spec{N: 23, CkptSteps: 5}, "Spec.CkptSteps 5 needs Spec.Recover"},
	} {
		for _, w := range All() {
			cl, err := w.ClusterLadder(4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(ctx, cl, m, mpi.Options{}, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %+v: err = %v, want %q", w.Name(), tc.spec, err, tc.want)
			}
		}
	}
}
