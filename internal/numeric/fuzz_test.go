package numeric

import (
	"math"
	"testing"
)

// Fuzz targets: run their seed corpus under plain `go test`; explore with
// `go test -fuzz=FuzzPolyFit ./internal/numeric`.

func FuzzPolyFitNeverPanicsAndInterpolates(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8))
	f.Add(int64(42), uint8(0), uint8(3))
	f.Add(int64(-7), uint8(3), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, degRaw, countRaw uint8) {
		deg := int(degRaw % 5)
		count := int(countRaw%20) + deg + 1
		xs := make([]float64, count)
		ys := make([]float64, count)
		state := uint64(seed)
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>11) / float64(1<<53)
		}
		x := 0.0
		for i := range xs {
			x += 0.5 + 10*next()
			xs[i] = x
			ys[i] = 100 * (next() - 0.5)
		}
		fit, err := PolyFit(xs, ys, deg)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		for _, xi := range xs {
			if v := fit.Eval(xi); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("fit produced non-finite value at %g", xi)
			}
		}
		// Quality must be computable and R² <= 1 + eps.
		q, err := Quality(fit, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if q.RSquared > 1+1e-9 {
			t.Fatalf("R² = %g > 1", q.RSquared)
		}
	})
}

func FuzzBrentFindsBracketedRoots(f *testing.F) {
	f.Add(0.5, 2.0, -3.0)
	f.Add(-1.0, 0.1, 1.0)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		for _, v := range []float64{a, b, c} {
			if !IsFinite(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		if math.Abs(a) < 1e-9 {
			return
		}
		// f(x) = a(x-b)(x-c) has roots at b and c; bracket around b.
		fn := func(x float64) float64 { return a * (x - b) * (x - c) }
		lo, hi := b-1, b+1
		if c > lo && c < hi {
			return // second root inside the bracket: sign change not guaranteed
		}
		if fn(lo)*fn(hi) > 0 {
			return
		}
		root, err := Brent(fn, lo, hi, 1e-12, 0)
		if err != nil {
			t.Fatalf("Brent failed on bracketed root: %v", err)
		}
		if math.Abs(fn(root)) > 1e-6*math.Max(1, math.Abs(a)) {
			t.Fatalf("Brent root %g has residual %g", root, fn(root))
		}
	})
}
