package linalg

import "testing"

func benchMatrices(b *testing.B, n int) (*Matrix, *Matrix) {
	b.Helper()
	return RandomMatrix(n, 1), RandomMatrix(n, 2)
}

func BenchmarkMatMulNaive128(b *testing.B) {
	x, y := benchMatrices(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGauss128(b *testing.B) {
	a := RandomDiagDominant(128, 3)
	rhs := RandomVector(128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGauss(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGaussNoPivot128(b *testing.B) {
	a := RandomDiagDominant(128, 3)
	rhs := RandomVector(128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGaussNoPivot(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
