package numeric

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LinReg holds an ordinary least-squares line y = Intercept + Slope*x.
type LinReg struct {
	Intercept float64
	Slope     float64
	R2        float64
}

// LinearFit fits y = a + b*x by ordinary least squares. It is used to
// calibrate the affine communication cost models (T_send = a + b*bytes,
// T_bcast = a + b*p, ...) from measured samples, mirroring §4.5 of the paper.
func LinearFit(xs, ys []float64) (LinReg, error) {
	if len(xs) != len(ys) {
		return LinReg{}, fmt.Errorf("numeric: LinearFit length mismatch: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinReg{}, fmt.Errorf("numeric: LinearFit needs >= 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, fmt.Errorf("numeric: LinearFit degenerate x values")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return LinReg{Intercept: a, Slope: b, R2: r2}, nil
}

// RelErr returns |got-want| / max(|want|, eps). It is the comparison used
// throughout the experiment suite when checking reproduced numbers against
// analytic expectations.
func RelErr(got, want float64) float64 {
	d := math.Abs(got - want)
	m := math.Abs(want)
	if m < 1e-300 {
		m = 1e-300
	}
	return d / m
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
