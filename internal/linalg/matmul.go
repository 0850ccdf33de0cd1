package linalg

import "fmt"

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
