package workload

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/outcomes.golden from current output")

// TestOutcomesGolden pins every workload's outcomes bit for bit, so a
// refactor that moved all three engines alike still shows: each
// registered workload plus Jacobi's overlap variant, on the p = 4 and
// p = 7 rungs of its ladder at N = 23 and 64, run plainly and recovered
// from rank p−1 crashing at half the plain makespan. Every engine must
// print the golden's lines exactly. CheckpointMS is left out: it has its
// own cross-engine test.
func TestOutcomesGolden(t *testing.T) {
	type variant struct {
		label string
		w     Workload
	}
	var variants []variant
	for _, w := range All() {
		variants = append(variants, variant{w.Name(), w})
	}
	variants = append(variants, variant{"jacobi-overlap", Jacobi{Overlap: true}})
	m := testModel(t)
	ctx := context.Background()

	render := func(t *testing.T, engine mpi.Engine) string {
		var b strings.Builder
		for _, v := range variants {
			for _, p := range []int{4, 7} {
				cl, err := v.w.ClusterLadder(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{23, 64} {
					spec := Spec{N: n, Seed: 7}
					head := fmt.Sprintf("%s p=%d n=%d", v.label, p, n)
					plain, err := v.w.Run(ctx, cl, m, mpi.Options{Engine: engine}, spec)
					if err != nil {
						t.Fatalf("%s: %v", head, err)
					}
					fmt.Fprintf(&b, "%s plain %s\n", head, outcomeLine(plain))

					half := 0.5 * plain.Stats.TimeMS
					crash := mpi.Options{Engine: engine, Faults: crashInjector{at: map[int]float64{p - 1: half}}}
					out, rec, err := v.w.RunRecovered(ctx, cl, m, crash, spec, RecoveryConfig{IntervalSteps: 5})
					if err != nil {
						t.Fatalf("%s crash: %v", head, err)
					}
					fmt.Fprintf(&b, "%s crash %s %s\n", head, outcomeLine(out), recoveredLine(rec))
				}
			}
		}
		return b.String()
	}

	path := filepath.Join("testdata", "outcomes.golden")
	for i, engine := range []mpi.Engine{mpi.EngineDES, mpi.EngineLive, mpi.EngineSymbolic} {
		got := render(t, engine)
		if *update && i == 0 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for k := 0; k < len(gl) && k < len(wl); k++ {
				if gl[k] != wl[k] {
					t.Fatalf("engine %v drifted from %s at line %d (rerun with -update to accept):\ngot:  %s\nwant: %s", engine, path, k+1, gl[k], wl[k])
				}
			}
			t.Fatalf("engine %v: %d lines, golden has %d", engine, len(gl), len(wl))
		}
	}
}

// outcomeLine prints an Outcome with every float in its exact shortest
// form.
func outcomeLine(o Outcome) string {
	return fmt.Sprintf("work=%v vt=%v stats=%+v check=%#x", o.Work, o.VirtualTime, o.Stats, o.Check)
}

// recoveredLine prints a RecoveredResult's recovery bookkeeping, all but
// CheckpointMS.
func recoveredLine(r mpi.RecoveredResult) string {
	return fmt.Sprintf("attempts=%d recovered=%v checkpoints=%d events=%+v",
		r.Attempts, r.Recovered, r.Checkpoints, r.Events)
}
