// Package linalg implements the dense linear-algebra kernels the paper's
// evaluation algorithms are built on: a row-major dense matrix type,
// sequential Gaussian elimination with partial pivoting and back
// substitution (the reference for correctness of the parallel GE), and
// several matrix-multiplication kernels (the reference for the parallel MM).
//
// All code is stdlib-only and deterministic; random fills take explicit
// seeds so every experiment is reproducible.
package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("linalg: FromRows ragged input: row %d has %d cols, want %d", i, len(row), c)
		}
		copy(m.Row(i), row)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// RandomMatrix returns an n x n matrix with entries uniform in [-1, 1),
// generated deterministically from seed.
func RandomMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomDiagDominant returns an n x n strictly diagonally dominant matrix,
// guaranteed non-singular — the standard well-conditioned test input for
// Gaussian elimination.
func RandomDiagDominant(n int, seed int64) *Matrix {
	m := RandomMatrix(n, seed)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, rowSum+1)
	}
	return m
}

// RandomVector returns a length-n vector with entries uniform in [-1, 1).
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// MatVec computes y = m * x.
func MatVec(m *Matrix, x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MatVec dim mismatch: %dx%d times %d", m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// VecNormInf returns the max-abs norm of v.
func VecNormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// VecSub returns a - b.
func VecSub(a, b []float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("linalg: VecSub length mismatch %d vs %d", len(a), len(b))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// ResidualInf returns ||A*x - b||_inf, the standard solve-quality check.
func ResidualInf(a *Matrix, x, b []float64) (float64, error) {
	ax, err := MatVec(a, x)
	if err != nil {
		return 0, err
	}
	r, err := VecSub(ax, b)
	if err != nil {
		return 0, err
	}
	return VecNormInf(r), nil
}
