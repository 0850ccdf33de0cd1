package core

import (
	"errors"
	"math"
	"testing"
)

// syntheticRunner models T(n) = W/(δC) + a + b·n (overhead linear in n),
// with W = n³ flops, yielding a saturating efficiency curve like Fig 1.
func syntheticRunner(cMflops, delta, aMS, bMS float64) Runner {
	return func(n int) (float64, float64, error) {
		w := float64(n) * float64(n) * float64(n)
		t := w/(delta*cMflops*1e3) + aMS + bMS*float64(n)
		return w, t, nil
	}
}

func TestMeasureCurveBasics(t *testing.T) {
	run := syntheticRunner(100, 0.5, 5, 0.2)
	sizes := []int{600, 100, 200, 400, 300, 500, 800, 700} // unsorted on purpose
	curve, err := MeasureCurve("C2", 100, sizes, 3, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != len(sizes) {
		t.Fatalf("points %d", len(curve.Points))
	}
	// Sorted ascending.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].N <= curve.Points[i-1].N {
			t.Fatal("points not sorted")
		}
	}
	if !curve.MonotoneOnSamples() {
		t.Error("synthetic efficiency should be monotone")
	}
	// Efficiencies approach but never exceed delta.
	for _, p := range curve.Points {
		if p.Eff <= 0 || p.Eff >= 0.5 {
			t.Errorf("E(%d) = %g out of (0, 0.5)", p.N, p.Eff)
		}
	}
	// Trend approximates samples well (rational saturating curve, cubic
	// trend: R² ≈ 0.985).
	if curve.Fit.RSquared < 0.97 {
		t.Errorf("trend R² = %g", curve.Fit.RSquared)
	}
}

func TestMeasureCurveErrors(t *testing.T) {
	run := syntheticRunner(100, 0.5, 5, 0.2)
	if _, err := MeasureCurve("x", 0, []int{10}, 2, run); err == nil {
		t.Error("zero marked speed accepted")
	}
	if _, err := MeasureCurve("x", 100, nil, 2, run); err == nil {
		t.Error("no sizes accepted")
	}
	if _, err := MeasureCurve("x", 100, []int{10}, 2, nil); err == nil {
		t.Error("nil runner accepted")
	}
	if _, err := MeasureCurve("x", 100, []int{0}, 2, run); err == nil {
		t.Error("size 0 accepted")
	}
	failing := func(n int) (float64, float64, error) { return 0, 0, errors.New("nope") }
	if _, err := MeasureCurve("x", 100, []int{10}, 2, failing); err == nil {
		t.Error("failing runner not surfaced")
	}
}

func TestRequiredSizeReadOff(t *testing.T) {
	// Analytic check: E(n) = (n³/(δC)) / (T·C)... compute target from the
	// exact model, then confirm the trend read-off lands close.
	c, delta, a, b := 120.0, 0.5, 4.0, 0.15
	run := syntheticRunner(c, delta, a, b)
	var sizes []int
	for n := 100; n <= 1200; n += 100 {
		sizes = append(sizes, n)
	}
	curve, err := MeasureCurve("C", c, sizes, 3, run)
	if err != nil {
		t.Fatal(err)
	}
	target := 0.3
	nReq, err := curve.RequiredSize(target)
	if err != nil {
		t.Fatal(err)
	}
	// Verify like the paper's grey dot: re-run at round(nReq).
	eff, err := curve.VerifyAt(int(math.Round(nReq)), run)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff-target) > 0.02 {
		t.Errorf("verification at N=%.0f gave E=%g, want ≈%g", nReq, eff, target)
	}
}

func TestRequiredSizeUnreachable(t *testing.T) {
	run := syntheticRunner(100, 0.5, 5, 0.2)
	curve, err := MeasureCurve("C", 100, []int{100, 200, 300}, 2, run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := curve.RequiredSize(0.49); !errors.Is(err, ErrTargetUnreachable) {
		t.Errorf("target near asymptote: %v", err)
	}
	if _, err := curve.RequiredSize(1.5); err == nil {
		t.Error("target >= 1 accepted")
	}
	if _, err := curve.RequiredSize(-0.1); err == nil {
		t.Error("negative target accepted")
	}
	short := EfficiencyCurve{Points: curve.Points[:1]}
	if _, err := short.RequiredSize(0.2); err == nil {
		t.Error("single-point curve accepted")
	}
}

func TestVerifyAtErrors(t *testing.T) {
	curve := EfficiencyCurve{C: 100}
	if _, err := curve.VerifyAt(10, nil); err == nil {
		t.Error("nil runner accepted")
	}
	failing := func(n int) (float64, float64, error) { return 0, 0, errors.New("nope") }
	if _, err := curve.VerifyAt(10, failing); err == nil {
		t.Error("failing runner not surfaced")
	}
}

func TestCurveDegreeClamping(t *testing.T) {
	run := syntheticRunner(100, 0.5, 5, 0.2)
	// Two points force degree 1; default degree (0 -> 3) must clamp.
	curve, err := MeasureCurve("C", 100, []int{100, 300}, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	if deg := len(curve.Trend.Coeffs) - 1; deg > 1 {
		t.Errorf("trend degree %d, want <= 1", deg)
	}
}
