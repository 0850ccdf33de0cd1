package linalg

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4)
	if m.At(0, 0) != 1 || m.At(1, 2) != -4 || m.At(0, 1) != 0 {
		t.Errorf("At/Set mismatch: %v", m.Data)
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row must alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Error("Clone must deep-copy")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for negative dims")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows: want error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Errorf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestIdentityAndMatVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3, 0.5}
	y, err := MatVec(id, x)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("I*x differs at %d: %g vs %g", i, y[i], x[i])
		}
	}
	if _, err := MatVec(id, []float64{1}); err == nil {
		t.Error("dim mismatch: want error")
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := RandomMatrix(8, 42)
	b := RandomMatrix(8, 42)
	if !slices.Equal(a.Data, b.Data) {
		t.Error("same seed must give same matrix")
	}
	c := RandomMatrix(8, 43)
	if slices.Equal(a.Data, c.Data) {
		t.Error("different seeds should differ")
	}
	v1 := RandomVector(10, 7)
	v2 := RandomVector(10, 7)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed must give same vector")
		}
	}
}

func TestRandomDiagDominantIsDominant(t *testing.T) {
	m := RandomDiagDominant(20, 3)
	for i := 0; i < m.Rows; i++ {
		var off float64
		for j := 0; j < m.Cols; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not strictly dominant: diag %g vs off %g", i, m.At(i, i), off)
		}
	}
}

func TestNorms(t *testing.T) {
	if got := VecNormInf([]float64{-5, 2}); got != 5 {
		t.Errorf("VecNormInf = %g, want 5", got)
	}
}

func TestVecSub(t *testing.T) {
	d, err := VecSub([]float64{3, 5}, []float64{1, 7})
	if err != nil || d[0] != 2 || d[1] != -2 {
		t.Errorf("VecSub = %v, %v", d, err)
	}
	if _, err := VecSub([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestResidualInf(t *testing.T) {
	a := Identity(3)
	x := []float64{1, 2, 3}
	r, err := ResidualInf(a, x, []float64{1, 2, 4})
	if err != nil || r != 1 {
		t.Errorf("ResidualInf = %g, %v; want 1", r, err)
	}
}

// Property: MatVec is linear: A(x+y) == Ax + Ay.
func TestMatVecLinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomMatrix(6, seed)
		x := RandomVector(6, seed+1)
		y := RandomVector(6, seed+2)
		xy := make([]float64, 6)
		for i := range xy {
			xy[i] = x[i] + y[i]
		}
		axy, _ := MatVec(a, xy)
		ax, _ := MatVec(a, x)
		ay, _ := MatVec(a, y)
		for i := range axy {
			if math.Abs(axy[i]-(ax[i]+ay[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
