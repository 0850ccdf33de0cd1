package workload_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// A symbolic run sends mpi.Blank payloads where a real-data run sends
// values. These tests pin both halves of that trade: the symbolic run
// costs exactly what the real-data run costs — on every engine and every
// run path — and it allocates no payload.

// TestSymbolicPayloadConformance runs every registered workload on every
// engine plainly and recovered from one injected crash, once with real
// data and once symbolically. Everything but the numeric output must
// agree, the recovery accounting included, and no run may write into the
// shared zero array.
func TestSymbolicPayloadConformance(t *testing.T) {
	model := confModel(t)
	// Grow the shared array past every payload below first, so every
	// Blank handed out here is a view of this one array.
	const maxLen = 3 * confN * confN
	pre := mpi.Blank(maxLen)
	ctx := context.Background()
	for _, w := range workload.All() {
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, confP)
			for _, eng := range wlEngines {
				var plain [2]workload.Outcome
				for i, symbolic := range []bool{false, true} {
					out, err := w.Run(ctx, cl, model, eng.opts, workload.Spec{N: confN, Seed: confSeed, Symbolic: symbolic})
					if err != nil {
						t.Fatalf("%s symbolic=%v: %v", eng.name, symbolic, err)
					}
					plain[i] = out
				}
				requireSameCost(t, eng.name+" plain", plain[0], plain[1])

				midRun := 0.5 * plain[0].Stats.TimeMS
				label := eng.name + " crash"
				var outs [2]workload.Outcome
				var recs [2]mpi.Result
				for i, symbolic := range []bool{false, true} {
					opts := eng.opts
					plan := faults.Plan{Seed: 11, Crashes: []faults.Crash{{Rank: confP - 1, AtMS: midRun}}}
					_, _, inj, err := plan.Apply(cl, model)
					if err != nil {
						t.Fatal(err)
					}
					opts.Faults = inj
					spec := workload.Spec{N: confN, Seed: confSeed, Symbolic: symbolic, Recover: true, CkptSteps: 5}
					out, err := w.Run(ctx, cl, model, opts, spec)
					if err != nil {
						t.Fatalf("%s symbolic=%v: %v", label, symbolic, err)
					}
					outs[i], recs[i] = out, out.Stats
				}
				if recs[0].Attempts < 2 {
					t.Errorf("%s: no rollback (crash at %.3f ms)", label, midRun)
				}
				requireSameCost(t, label, outs[0], outs[1])
				if !reflect.DeepEqual(recs[0], recs[1]) {
					t.Errorf("%s: recovery accounting differs:\nreal:     %+v\nsymbolic: %+v", label, recs[0], recs[1])
				}
			}
		})
	}
	post := mpi.Blank(maxLen)
	if &post[0] != &pre[0] {
		t.Fatal("the shared array grew: a payload exceeded maxLen")
	}
	for i, v := range post {
		if v != 0 {
			t.Fatalf("shared array element %d = %g: a run wrote into a Blank", i, v)
		}
	}
}

// TestSymbolicRunAllocatesNoPayload bounds what one symbolic run
// allocates on the symbolic engine at a rung whose payloads are large:
// under an eighth of the bytes it moves (or 256 KiB), where a run that
// built or copied its messages would allocate at least as much as it
// moves.
func TestSymbolicRunAllocatesNoPayload(t *testing.T) {
	model := confModel(t)
	opts := mpi.Options{Engine: mpi.EngineSymbolic}
	spec := workload.Spec{N: 800, Seed: confSeed, Symbolic: true}
	for _, w := range workload.All() {
		t.Run(w.Name(), func(t *testing.T) {
			cl := confCluster(t, w, 8)
			run := func() workload.Outcome {
				out, err := w.Run(context.Background(), cl, model, opts, spec)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			out := run() // warm-up: grows the shared array
			best := ^uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			bound := max(uint64(out.Stats.BytesMoved/8), 256<<10)
			if best >= bound {
				t.Errorf("one symbolic run allocates %d B, bound %d B (%d B moved)", best, bound, out.Stats.BytesMoved)
			}
			t.Logf("%d B allocated per run, %d B moved", best, out.Stats.BytesMoved)
		})
	}
}
