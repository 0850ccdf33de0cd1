package workload_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The conformance suite is the contract every registered workload must
// honor. It runs against workload.All(), so registering a new workload
// automatically subjects it to every assertion here with no per-workload
// test code.

const (
	confP    = 4
	confN    = 64
	confSeed = int64(7)
)

func confModel(t *testing.T) simnet.CostModel {
	t.Helper()
	m, err := simnet.NewParamModel("sunwulf-100Mb", simnet.Sunwulf100())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func confCluster(t *testing.T, w workload.Workload, p int) *cluster.Cluster {
	t.Helper()
	cl, err := w.ClusterLadder(p)
	if err != nil {
		t.Fatalf("%s: ladder rung p=%d: %v", w.Name(), p, err)
	}
	return cl
}

// Assertion (a): the two branches of a workload's one run path agree.
// With Spec.Recover, no checkpoint cadence and no faults the supervisor
// runs a single instance of the same rank program the plain branch runs
// through mpi.Run, so the work, the whole Stats (one attempt, no
// checkpoints, no rollbacks) and the numeric output must be identical.
// VirtualTime is deliberately not compared: an iterative
// workload's plain run meters only its loop window, while a recovered
// run meters the recovered makespan.
func TestConformanceRecoveredPathMatchesPlain(t *testing.T) {
	model := confModel(t)
	modes := []struct {
		name     string
		opts     mpi.Options
		symbolic bool
	}{
		{"live-numeric", mpi.Options{Engine: mpi.EngineLive}, false},
		{"des-symbolic", mpi.Options{Engine: mpi.EngineDES}, true},
		{"symbolic-symbolic", mpi.Options{Engine: mpi.EngineSymbolic}, true},
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, confP)
			for _, mode := range modes {
				spec := workload.Spec{N: confN, Seed: confSeed, Symbolic: mode.symbolic}
				plain, err := w.Run(context.Background(), cl, model, mode.opts, spec)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				rspec := spec
				rspec.Recover = true
				rec, err := w.Run(context.Background(), cl, model, mode.opts, rspec)
				if err != nil {
					t.Fatalf("%s: recovered: %v", mode.name, err)
				}
				if rec.Work != plain.Work {
					t.Errorf("%s: recovered Work = %g, plain %g", mode.name, rec.Work, plain.Work)
				}
				if plain.Stats.Attempts != 1 || !reflect.DeepEqual(rec.Stats, plain.Stats) {
					t.Errorf("%s: recovered Stats = %+v, plain %+v", mode.name, rec.Stats, plain.Stats)
				}
				if (plain.Check == 0) != mode.symbolic {
					t.Errorf("%s: plain Check = %#x", mode.name, plain.Check)
				}
				if rec.Check != plain.Check {
					t.Errorf("%s: recovered Check = %#x, plain %#x: outputs differ bitwise", mode.name, rec.Check, plain.Check)
				}
			}
		})
	}
}

// Assertion (b): the work polynomial WorkAt matches the flops the run
// actually reports, and the symbolic run agrees with the numeric one.
func TestConformanceWorkAtMatchesMeasured(t *testing.T) {
	model := confModel(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, confP)
			for _, n := range []int{33, confN} {
				out, err := w.Run(context.Background(), cl, model, mpi.Options{}, workload.Spec{N: n, Seed: confSeed, Symbolic: true})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if want := w.WorkAt(n); out.Work != want {
					t.Errorf("n=%d: measured work %g, WorkAt %g", n, out.Work, want)
				}
				if out.Check != 0 {
					t.Errorf("n=%d: symbolic run has non-zero Check %#x", n, out.Check)
				}
			}
		})
	}
}

// Assertion (c): the analytic overhead To(n) is nonnegative and
// nondecreasing in n on every rung of the workload's ladder.
func TestConformanceOverheadShape(t *testing.T) {
	model := confModel(t)
	grid := []float64{32, 64, 128, 256, 512, 1024}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			for _, p := range []int{2, 4, 8} {
				m, err := w.Machine(confCluster(t, w, p), model)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				to := m.Overhead
				prev := 0.0
				for _, n := range grid {
					v := to(n)
					if v < 0 {
						t.Errorf("p=%d: To(%g) = %g < 0", p, n, v)
					}
					if v < prev {
						t.Errorf("p=%d: To(%g) = %g < To at previous n (%g)", p, n, v, prev)
					}
					prev = v
				}
			}
		})
	}
}

// Assertion (d): a crashed run recovered via checkpoint/rollback produces
// output bitwise equal to the undisturbed run.
func TestConformanceRecoveredOutputBitwiseEqual(t *testing.T) {
	model := confModel(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, confP)
			spec := workload.Spec{N: confN, Seed: confSeed}
			base, err := w.Run(context.Background(), cl, model, mpi.Options{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			plan := faults.Plan{Seed: 11, Crashes: []faults.Crash{
				{Rank: cl.Size() - 1, AtMS: 0.5 * base.Stats.TimeMS},
			}}
			_, _, inj, err := plan.Apply(cl, model)
			if err != nil {
				t.Fatal(err)
			}
			rspec := spec
			rspec.Recover, rspec.CkptSteps = true, 5
			out, err := w.Run(context.Background(), cl, model, mpi.Options{Faults: inj}, rspec)
			if err != nil {
				t.Fatal(err)
			}
			if out.Stats.Attempts < 2 {
				t.Errorf("Attempts = %d, want a rollback (crash at %.3f ms)", out.Stats.Attempts, plan.Crashes[0].AtMS)
			}
			if out.Check == 0 || out.Check != base.Check {
				t.Errorf("recovered Check = %#x, undisturbed %#x: outputs differ bitwise", out.Check, base.Check)
			}
			if out.Work != base.Work {
				t.Errorf("recovered Work = %g, undisturbed %g", out.Work, base.Work)
			}
		})
	}
}
