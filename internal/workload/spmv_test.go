package workload

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/mpi"
)

func TestSpMVMatchesSequential(t *testing.T) {
	cl := mmCluster(t)
	m := testModel(t)
	for _, n := range []int{12, 33, 64} {
		_, x, err := SpMV{}.run(context.Background(), cl, m, mpi.Options{}, Spec{N: n, Seed: 3})
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

func TestSpMVTopUpMovesRowsFromLargestBlock(t *testing.T) {
	// Short blocks are raised in rank order, each row taken from the
	// currently largest block, the lowest rank winning ties.
	got := bandTopUp([]int{1, 4, 4, 0}, spmvHalo)
	if want := []int{2, 2, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bandTopUp = %v, want %v", got, want)
	}
	// A distribution that already meets the floor is left as it is.
	if got := bandTopUp([]int{2, 5, 3}, spmvHalo); !reflect.DeepEqual(got, []int{2, 5, 3}) {
		t.Fatalf("bandTopUp changed a valid distribution: %v", got)
	}
}

func TestSpMVShortBlocksToppedUpOnLadder(t *testing.T) {
	// The p = 7 rung at n = 19: the proportional split leaves a rank one
	// row, below the halo depth. The top-up must make the run valid on
	// both engines, with every rank owning at least spmvHalo rows, and
	// the engines must still agree bit for bit.
	const n, p = 19, 7
	cl, err := SpMV{}.ClusterLadder(p)
	if err != nil {
		t.Fatal(err)
	}
	asn, err := dist.HetBlock{}.Assign(n, cl.Speeds())
	if err != nil {
		t.Fatal(err)
	}
	if slices.Min(asn.Counts) >= spmvHalo {
		t.Fatalf("precondition: proportional split %v leaves no rank short", asn.Counts)
	}
	ranges, err := bandRanges(n, spmvHalo, dist.HetBlock{}, cl.Speeds())
	if err != nil {
		t.Fatal(err)
	}
	for r, rg := range ranges {
		if rows := rg[1] - rg[0]; rows < spmvHalo {
			t.Errorf("rank %d owns %d rows, want >= %d", r, rows, spmvHalo)
		}
	}
	if _, err := bandRanges(2*p-1, spmvHalo, dist.HetBlock{}, cl.Speeds()); err == nil {
		t.Error("n < 2p must still be rejected")
	}
	m := testModel(t)
	spec := Spec{N: n, Seed: 8}
	des, err := SpMV{}.Run(context.Background(), cl, m, mpi.Options{Engine: mpi.EngineDES}, spec)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := SpMV{}.Run(context.Background(), cl, m, mpi.Options{Engine: mpi.EngineSymbolic}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(des, sym) {
		t.Fatalf("des %+v != symbolic %+v", des, sym)
	}
}
