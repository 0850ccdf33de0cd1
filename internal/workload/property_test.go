package workload_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// Property tests for the symbolic cost model that underlies the asymptotic
// (closed-form) ladder rungs: shape constraints on To across rung widths,
// and the Theorem 1 identity on homogeneous ladders. Together with the
// differential suites these bound where the closed-form pricing can be
// trusted without an executable cross-check.

// TestOverheadNonNegativeAndMonotoneInP: at any fixed problem size, adding
// ranks to a workload's ladder can only add overhead — To(n) >= 0 and
// nondecreasing in p along the ladder. (Monotonicity in n at fixed p is
// asserted by the conformance suite.)
func TestOverheadNonNegativeAndMonotoneInP(t *testing.T) {
	model := confModel(t)
	rungs := []int{2, 4, 8, 16, 32}
	sizes := []float64{64, 256, 1024, 4096}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			prev := make([]float64, len(sizes))
			for _, p := range rungs {
				m, err := w.Machine(confCluster(t, w, p), model)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				to := m.Overhead
				for i, n := range sizes {
					v := to(n)
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("p=%d: To(%g) = %g, want finite and >= 0", p, n, v)
					}
					if v < prev[i] {
						t.Errorf("p=%d: To(%g) = %g < To at previous rung (%g): overhead shrank as ranks were added",
							p, n, v, prev[i])
					}
					prev[i] = v
				}
			}
		})
	}
}

// TestHomogeneousTheorem1Identity: on uniform (homogeneous) ladders the
// isospeed-efficiency chain computed from the definition (ψ = C'W / (C W')
// at the solved problem sizes) must match Theorem 1's closed form
// ψ = (t0 + To) / (t0' + To') — the special case where the paper's
// prediction machinery is analytically checkable end to end.
func TestHomogeneousTheorem1Identity(t *testing.T) {
	model := confModel(t)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			machines := make([]core.AnalyticMachine, 0, 3)
			for _, p := range []int{2, 4, 8} {
				cl, err := cluster.Uniform(fmt.Sprintf("U%d", p), p, 50)
				if err != nil {
					t.Fatal(err)
				}
				m, err := w.Machine(cl, model)
				if err != nil {
					t.Fatal(err)
				}
				machines = append(machines, m)
			}
			_, psiDef, psiThm, err := core.PredictChain(machines, w.DefaultTarget(), 8, 5e6)
			if err != nil {
				t.Fatal(err)
			}
			for i := range psiDef {
				// A workload with overhead flat in n (spmv's constant-size
				// halo) sits exactly at ψ = 1; allow an ulp of rounding
				// above the mathematical bound.
				if psiDef[i] <= 0 || psiDef[i] > 1+1e-12 {
					t.Errorf("link %d: psi = %g outside (0, 1]", i, psiDef[i])
				}
				rel := math.Abs(psiDef[i]-psiThm[i]) / psiThm[i]
				if rel > 1e-3 {
					t.Errorf("link %d: definition psi %g vs Theorem 1 psi %g (rel err %.2e)",
						i, psiDef[i], psiThm[i], rel)
				}
			}
		})
	}
}
