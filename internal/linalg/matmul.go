package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul computes C = A * B with the straightforward i-k-j loop order
// (cache-friendlier than i-j-k because the innermost loop streams rows).
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MatMul dim mismatch: %dx%d times %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewMatrix(a.Rows, b.Cols)
	mulRows(a, b, c, 0, a.Rows)
	return c, nil
}

// mulRows computes rows [lo, hi) of C = A*B.
func mulRows(a, b, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := ai[k]
			if aik == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range bk {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// MatMulBlocked computes C = A * B with square blocking of size bs, reducing
// cache misses for large matrices. bs <= 0 selects a default of 64.
func MatMulBlocked(a, b *Matrix, bs int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MatMulBlocked dim mismatch: %dx%d times %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if bs <= 0 {
		bs = 64
	}
	c := NewMatrix(a.Rows, b.Cols)
	for ii := 0; ii < a.Rows; ii += bs {
		iMax := min(ii+bs, a.Rows)
		for kk := 0; kk < a.Cols; kk += bs {
			kMax := min(kk+bs, a.Cols)
			for jj := 0; jj < b.Cols; jj += bs {
				jMax := min(jj+bs, b.Cols)
				for i := ii; i < iMax; i++ {
					ci := c.Row(i)
					ai := a.Row(i)
					for k := kk; k < kMax; k++ {
						aik := ai[k]
						if aik == 0 {
							continue
						}
						bk := b.Row(k)
						for j := jj; j < jMax; j++ {
							ci[j] += aik * bk[j]
						}
					}
				}
			}
		}
	}
	return c, nil
}

// MatMulParallel computes C = A * B splitting row bands across workers
// goroutines (0 means GOMAXPROCS). This is host-level shared-memory
// parallelism, distinct from the simulated message-passing MM in
// internal/workload; it is used to speed up large reference computations and as
// a shared-memory baseline in the benchmarks.
func MatMulParallel(a, b *Matrix, workers int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MatMulParallel dim mismatch: %dx%d times %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	c := NewMatrix(a.Rows, b.Cols)
	if workers <= 1 {
		mulRows(a, b, c, 0, a.Rows)
		return c, nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * a.Rows / workers
		hi := (w + 1) * a.Rows / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(a, b, c, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return c, nil
}

// MulRowsInto multiplies the row band held in aRows (shape rows x n) by b
// (n x n) into a fresh rows x n matrix. This is the per-node compute kernel
// of the distributed MM: each node owns a band of A and all of B.
func MulRowsInto(aRows, b *Matrix) (*Matrix, error) {
	if aRows.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: MulRowsInto dim mismatch: %dx%d times %dx%d",
			aRows.Rows, aRows.Cols, b.Rows, b.Cols)
	}
	c := NewMatrix(aRows.Rows, b.Cols)
	mulRows(aRows, b, c, 0, aRows.Rows)
	return c, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
