package linalg

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !slices.Equal(c.Data, want.Data) {
		t.Errorf("MatMul = %v, want %v", c.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := RandomMatrix(12, 5)
	c, err := MatMul(a, Identity(12))
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	if !slices.Equal(c.Data, a.Data) {
		t.Error("A*I != A")
	}
	c2, _ := MatMul(Identity(12), a)
	if !slices.Equal(c2.Data, a.Data) {
		t.Error("I*A != A")
	}
}

func TestMatMulDimMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := MatMul(a, b); err == nil {
		t.Error("want error")
	}
	if _, err := MulRowsInto(a, b); err == nil {
		t.Error("want error (rows-into)")
	}
}

func TestMulRowsIntoBand(t *testing.T) {
	n := 16
	a := RandomMatrix(n, 21)
	b := RandomMatrix(n, 22)
	ref, _ := MatMul(a, b)
	// Multiply a band of rows and compare with the same slice of ref.
	lo, hi := 5, 11
	band := &Matrix{Rows: hi - lo, Cols: n, Data: a.Data[lo*n : hi*n]}
	c, err := MulRowsInto(band, b)
	if err != nil {
		t.Fatalf("MulRowsInto: %v", err)
	}
	for i := 0; i < hi-lo; i++ {
		for j := 0; j < n; j++ {
			if diff := c.At(i, j) - ref.At(lo+i, j); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("band element (%d,%d) differs by %g", i, j, diff)
			}
		}
	}
}

// Property: (A*B)*x == A*(B*x).
func TestMatMulAssociativityWithVectorQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 9
		a := RandomMatrix(n, seed)
		b := RandomMatrix(n, seed+1)
		x := RandomVector(n, seed+2)
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		lhs, _ := MatVec(ab, x)
		bx, _ := MatVec(b, x)
		rhs, _ := MatVec(a, bx)
		d, _ := VecSub(lhs, rhs)
		return VecNormInf(d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
