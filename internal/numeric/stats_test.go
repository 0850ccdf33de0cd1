package numeric

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.23*x + 0.017 // the paper's T_bcast-style affine model
	}
	lr, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatalf("LinearFit: %v", err)
	}
	if !almostEq(lr.Slope, 0.23, 1e-12) || !almostEq(lr.Intercept, 0.017, 1e-9) {
		t.Errorf("LinearFit = %+v, want slope 0.23 intercept 0.017", lr)
	}
	if lr.R2 < 1-1e-12 {
		t.Errorf("R2 = %g, want 1", lr.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point: want error")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x: want error")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("Linspace len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Errorf("Linspace[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("Linspace n=0 should be nil")
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr = %g, want 0.1", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %g, want 0", got)
	}
}

// Property: mean lies between min and max.
func TestStatsInvariantsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if IsFinite(v) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, hi := slices.Min(xs), slices.Max(xs)
		const eps = 1e-9
		return m >= lo-eps*(math.Abs(lo)+1) && m <= hi+eps*(math.Abs(hi)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
