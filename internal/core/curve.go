package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/numeric"
)

// CurvePoint is one measured sample of an efficiency curve.
type CurvePoint struct {
	N      int     // problem size (matrix rank)
	Work   float64 // W(N), flops
	TimeMS float64 // measured execution time
	Eff    float64 // E_s = W/(T·C)
}

// EfficiencyCurve is a measured speed-efficiency-vs-problem-size curve for
// one system configuration, with the paper's polynomial trend line.
// (§4.4: "Since the function between speed-efficiency and matrix size is
// polynomial, we use a polynomial trend line to approach the sample
// results. From the polynomial trend line, we can read the approximate
// required matrix size to obtain a specified speed-efficiency.")
type EfficiencyCurve struct {
	Label  string
	C      float64 // marked speed, Mflops
	Points []CurvePoint
	Trend  numeric.Polynomial
	Fit    numeric.FitQuality
}

// Runner executes the algorithm at problem size n on a fixed system and
// reports (work, timeMS). It is how core consumes internal/workload without
// depending on it.
type Runner func(n int) (work float64, timeMS float64, err error)

// MeasureCurve sweeps the runner over the given problem sizes, computes
// E_s at each, and fits a polynomial trend of the given degree (the paper
// uses low-order polynomials; degree is clamped to len(sizes)-1).
func MeasureCurve(label string, markedMflops float64, sizes []int, degree int, run Runner) (EfficiencyCurve, error) {
	if markedMflops <= 0 {
		return EfficiencyCurve{}, fmt.Errorf("%w: marked speed %g", ErrNonPositive, markedMflops)
	}
	if len(sizes) == 0 {
		return EfficiencyCurve{}, errors.New("core: MeasureCurve needs at least one size")
	}
	if run == nil {
		return EfficiencyCurve{}, errors.New("core: MeasureCurve needs a runner")
	}
	ss := append([]int(nil), sizes...)
	sort.Ints(ss)
	curve := EfficiencyCurve{Label: label, C: markedMflops}
	for _, n := range ss {
		if n <= 0 {
			return EfficiencyCurve{}, fmt.Errorf("core: MeasureCurve size %d must be positive", n)
		}
		w, t, err := run(n)
		if err != nil {
			return EfficiencyCurve{}, fmt.Errorf("core: MeasureCurve at n=%d: %w", n, err)
		}
		e, err := SpeedEfficiency(w, t, markedMflops)
		if err != nil {
			return EfficiencyCurve{}, fmt.Errorf("core: MeasureCurve at n=%d: %w", n, err)
		}
		curve.Points = append(curve.Points, CurvePoint{N: n, Work: w, TimeMS: t, Eff: e})
	}
	if degree < 1 {
		degree = 3
	}
	if degree > len(ss)-1 {
		degree = len(ss) - 1
	}
	if degree >= 1 {
		xs := make([]float64, len(curve.Points))
		ys := make([]float64, len(curve.Points))
		for i, p := range curve.Points {
			xs[i] = float64(p.N)
			ys[i] = p.Eff
		}
		trend, err := numeric.PolyFit(xs, ys, degree)
		if err != nil {
			return EfficiencyCurve{}, fmt.Errorf("core: MeasureCurve trend fit: %w", err)
		}
		curve.Trend = trend
		q, err := numeric.Quality(trend, xs, ys)
		if err != nil {
			return EfficiencyCurve{}, err
		}
		curve.Fit = q
	}
	return curve, nil
}

// EffAt evaluates the fitted trend at problem size n.
func (c EfficiencyCurve) EffAt(n float64) float64 { return c.Trend.Eval(n) }

// ErrTargetUnreachable reports that the requested efficiency is outside
// the measured range of a curve, so the read-off would be extrapolation.
var ErrTargetUnreachable = errors.New("core: target efficiency outside measured range")

// RequiredSize reads off the problem size at which the fitted trend
// reaches the target efficiency — the paper's "read the approximate
// required matrix size to obtain a specified speed-efficiency from the
// trend line". Fails with ErrTargetUnreachable if the target lies outside
// the measured efficiency range.
func (c EfficiencyCurve) RequiredSize(target float64) (float64, error) {
	if len(c.Points) < 2 {
		return 0, fmt.Errorf("core: RequiredSize needs >= 2 measured points, got %d", len(c.Points))
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("core: RequiredSize target %g out of (0,1)", target)
	}
	lo := float64(c.Points[0].N)
	hi := float64(c.Points[len(c.Points)-1].N)
	n, err := numeric.SolveIncreasing(c.EffAt, target, lo, hi, 1e-6)
	if err != nil {
		if errors.Is(err, numeric.ErrBelowRange) || errors.Is(err, numeric.ErrAboveRange) {
			return 0, fmt.Errorf("%w: target %g, trend range [%g, %g] over N in [%g, %g]",
				ErrTargetUnreachable, target, c.EffAt(lo), c.EffAt(hi), lo, hi)
		}
		return 0, err
	}
	return n, nil
}

// VerifyAt re-runs the runner at the (rounded) required size and reports
// the achieved efficiency — the paper's grey-dot verification in Fig. 1
// ("We measured the speed-efficiency when matrix size is 310 and the
// result is 0.312").
func (c EfficiencyCurve) VerifyAt(n int, run Runner) (float64, error) {
	if run == nil {
		return 0, errors.New("core: VerifyAt needs a runner")
	}
	w, t, err := run(n)
	if err != nil {
		return 0, err
	}
	return SpeedEfficiency(w, t, c.C)
}

// MonotoneOnSamples reports whether the measured efficiencies are
// non-decreasing in N — the qualitative property both of the paper's
// figures rely on for the read-off to be well-defined.
func (c EfficiencyCurve) MonotoneOnSamples() bool {
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Eff < c.Points[i-1].Eff-1e-12 {
			return false
		}
	}
	return true
}
