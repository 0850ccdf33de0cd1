// Package nasbench provides NPB-style benchmark kernels used to measure
// "marked speed" (paper Definition 1 / Table 1). The paper runs the NAS
// Parallel Benchmarks (LU, FT, BT, ...) on every node and takes the average
// speed as the node's marked speed. NPB itself is Fortran/C and tied to
// real hardware; this package supplies stand-in kernels with the same
// roles:
//
//	EP — embarrassingly parallel pseudo-random pair generation
//	MG — stencil relaxation (multigrid smoother style)
//	FT — radix-2 complex FFT
//	LU — dense LU factorization without pivoting
//	BT — batched tridiagonal (Thomas) solves, block-solver style
//
// Every kernel reports an exact flop count and performs real arithmetic
// (returning a checksum so the work cannot be optimized away), enabling
// both host measurements (wall clock) and model measurements (virtual time
// on a simulated node).
package nasbench

import "math"

// Kernel is one benchmark in the suite.
type Kernel interface {
	// Name is the NPB-style kernel mnemonic.
	Name() string
	// Flops returns the floating-point operation count at the given size.
	Flops(size int) float64
	// Run executes the kernel at the given size, returning a checksum.
	Run(size int) float64
}

// Suite returns the default benchmark suite in deterministic order.
func Suite() []Kernel {
	return []Kernel{EP{}, MG{}, FT{}, LU{}, BT{}}
}

// lcg is the deterministic linear congruential generator shared by kernels
// (NPB also prescribes its own portable generator).
type lcg struct{ state uint64 }

func (g *lcg) next() float64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return float64(g.state>>11) / float64(1<<53)
}

// EP generates pseudo-random pairs and accumulates Gaussian-ish deviates,
// after the NPB "embarrassingly parallel" kernel.
type EP struct{}

// Name implements Kernel.
func (EP) Name() string { return "EP" }

// Flops implements Kernel: ~10 flops per generated pair.
func (EP) Flops(size int) float64 { return 10 * float64(size) }

// Run implements Kernel.
func (EP) Run(size int) float64 {
	g := lcg{state: 271828}
	var sx, sy float64
	for i := 0; i < size; i++ {
		x := 2*g.next() - 1
		y := 2*g.next() - 1
		t := x*x + y*y
		if t <= 1 && t > 0 {
			f := math.Sqrt(-2 * math.Log(t) / t)
			sx += x * f
			sy += y * f
		}
	}
	return sx + sy
}

// MG runs Jacobi sweeps of a 5-point stencil over a size x size grid,
// standing in for the NPB multigrid smoother.
type MG struct{}

// mgIters is the fixed sweep count.
const mgIters = 8

// Name implements Kernel.
func (MG) Name() string { return "MG" }

// Flops implements Kernel: 6 flops per interior point per sweep.
func (MG) Flops(size int) float64 {
	if size < 3 {
		return 0
	}
	inner := float64(size-2) * float64(size-2)
	return mgIters * inner * 6
}

// Run implements Kernel.
func (MG) Run(size int) float64 {
	if size < 3 {
		return 0
	}
	g := lcg{state: 314159}
	cur := make([]float64, size*size)
	nxt := make([]float64, size*size)
	for i := range cur {
		cur[i] = g.next()
	}
	for it := 0; it < mgIters; it++ {
		for i := 1; i < size-1; i++ {
			for j := 1; j < size-1; j++ {
				idx := i*size + j
				nxt[idx] = 0.25*(cur[idx-1]+cur[idx+1]+cur[idx-size]+cur[idx+size]) - 0.5*cur[idx]
			}
		}
		cur, nxt = nxt, cur
	}
	var sum float64
	for _, v := range cur {
		sum += v
	}
	return sum
}

// FT computes an in-place radix-2 complex FFT of length 2^ceil(log2 size),
// standing in for the NPB Fourier transform kernel.
type FT struct{}

// Name implements Kernel.
func (FT) Name() string { return "FT" }

func pow2At(size int) int {
	n := 1
	for n < size {
		n <<= 1
	}
	if n < 2 {
		n = 2
	}
	return n
}

// Flops implements Kernel: the standard 5·n·log2(n) count.
func (FT) Flops(size int) float64 {
	n := pow2At(size)
	return 5 * float64(n) * math.Log2(float64(n))
}

// Run implements Kernel.
func (FT) Run(size int) float64 {
	n := pow2At(size)
	g := lcg{state: 161803}
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = g.next()
		im[i] = g.next()
	}
	// Bit reversal.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	// Danielson-Lanczos.
	for l := 2; l <= n; l <<= 1 {
		ang := -2 * math.Pi / float64(l)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for s := 0; s < n; s += l {
			cr, ci := 1.0, 0.0
			for k := 0; k < l/2; k++ {
				i1, i2 := s+k, s+k+l/2
				tr := cr*re[i2] - ci*im[i2]
				ti := cr*im[i2] + ci*re[i2]
				re[i2], im[i2] = re[i1]-tr, im[i1]-ti
				re[i1], im[i1] = re[i1]+tr, im[i1]+ti
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
	return re[0] + im[n/2]
}

// LU factorizes a size x size diagonally dominant matrix in place without
// pivoting, standing in for the NPB LU pseudo-application.
type LU struct{}

// Name implements Kernel.
func (LU) Name() string { return "LU" }

// Flops implements Kernel: the classical (2/3)n³ leading term.
func (LU) Flops(size int) float64 {
	n := float64(size)
	return 2 * n * n * n / 3
}

// Run implements Kernel.
func (LU) Run(size int) float64 {
	n := size
	if n < 1 {
		return 0
	}
	g := lcg{state: 577215}
	a := make([]float64, n*n)
	for i := range a {
		a[i] = g.next() - 0.5
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n) // dominance
	}
	for k := 0; k < n; k++ {
		pk := a[k*n+k]
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] / pk
			a[i*n+k] = f
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
		}
	}
	var trace float64
	for i := 0; i < n; i++ {
		trace += a[i*n+i]
	}
	return trace
}

// BT solves a batch of `size` tridiagonal systems of fixed dimension via
// the Thomas algorithm, standing in for the NPB block-tridiagonal solver.
type BT struct{}

// btDim is the dimension of each tridiagonal system.
const btDim = 64

// Name implements Kernel.
func (BT) Name() string { return "BT" }

// Flops implements Kernel: 8 flops per unknown per system.
func (BT) Flops(size int) float64 { return 8 * btDim * float64(size) }

// Run implements Kernel.
func (BT) Run(size int) float64 {
	g := lcg{state: 141421}
	var sum float64
	cp := make([]float64, btDim)
	dp := make([]float64, btDim)
	for s := 0; s < size; s++ {
		// Diagonally dominant tridiagonal: a=-1, b=4+eps_i, c=-1.
		b0 := 4 + g.next()
		cp[0] = -1 / b0
		dp[0] = g.next() / b0
		for i := 1; i < btDim; i++ {
			m := (4 + g.next()) + cp[i-1]
			cp[i] = -1 / m
			dp[i] = (g.next() + dp[i-1]) / m
		}
		x := dp[btDim-1]
		sum += x
		for i := btDim - 2; i >= 0; i-- {
			x = dp[i] - cp[i]*x
			sum += x
		}
	}
	return sum
}
