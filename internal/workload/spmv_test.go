package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestSpMVMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{12, 33, 64} {
		_, _, x, err := SpMV{}.run(context.Background(), cl, m, mpi.Options{}, Spec{N: n, Seed: 3}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := spmvSequential(n, SpMVIters, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if ref[i] != x[i] {
				t.Fatalf("n=%d: x[%d] = %g, ref %g", n, i, x[i], ref[i])
			}
		}
	}
}

func TestSpMVRowCoeffsNormalised(t *testing.T) {
	// Every row of the band matrix sums to exactly the normalised total,
	// out-of-matrix entries are zero, and in-matrix entries are positive:
	// the iteration is a bounded averaging process.
	const n = 40
	for _, seed := range []int64{0, 1, 7} {
		for i := 0; i < n; i++ {
			w := spmvRowCoeffs(n, seed, i)
			sum := 0.0
			for d := -spmvHalo; d <= spmvHalo; d++ {
				v := w[d+spmvHalo]
				j := i + d
				if j < 0 || j >= n {
					if v != 0 {
						t.Fatalf("seed %d row %d: out-of-matrix coeff w[%d] = %g", seed, i, d, v)
					}
					continue
				}
				if v <= 0 {
					t.Fatalf("seed %d row %d: coeff w[%d] = %g, want > 0", seed, i, d, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("seed %d row %d: coeffs sum to %g, want 1", seed, i, sum)
			}
		}
	}
}

func TestSpMVWorkCounts(t *testing.T) {
	// The closed-form W(n) agrees with the per-range nonzero count the
	// ranks actually charge.
	for _, n := range []int{5, 6, 33, 64} {
		if got, want := spmvNNZRange(0, n, n), spmvNNZ(n); got != want {
			t.Errorf("n=%d: range count %g, closed form %g", n, got, want)
		}
	}
	if got := (SpMV{}).WorkAt(64); got != 2*(5*64-6)*SpMVIters {
		t.Errorf("SpMV WorkAt(64) = %g", got)
	}
}

func TestSpMVIterationStaysBounded(t *testing.T) {
	// Row-stochastic averaging: max |x| never grows.
	x0, err := spmvSequential(48, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := spmvSequential(48, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := func(v []float64) float64 {
		m := 0.0
		for _, e := range v {
			m = math.Max(m, math.Abs(e))
		}
		return m
	}
	if maxAbs(x1) > maxAbs(x0)+1e-9 {
		t.Errorf("iteration grew: after 40 iters %g, after 1 iter %g", maxAbs(x1), maxAbs(x0))
	}
}
