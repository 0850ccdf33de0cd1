package core

import (
	"errors"
	"fmt"
	"math"
)

// Study is the packaged form of the paper's measurement procedure (§4.4,
// with the §4.5 analytic model placing each sweep) for one algorithm over
// a ladder of system configurations:
//
//	for every configuration:
//	    guess the interesting problem-size region from the analytic model,
//	    sweep problem sizes and measure (W, T),
//	    fit the trend to E_s(N), read off the required N at the target;
//	then chain ψ across configurations.
//
// This is the API a downstream user calls to evaluate their own
// algorithm-machine combinations, and the experiment suite's measured
// chains run through it. The paper's grey-dot check and the Theorem-1
// prediction are EfficiencyCurve.VerifyAt and PredictChain, which callers
// run beside it (fig1 and Table 7 do). cmd/scalescan does not use it: its
// read-off is a fixed eight-point sweep in package spec.

// StudyTarget is one rung of the ladder.
type StudyTarget struct {
	// Label names the configuration (e.g. "C4").
	Label string
	// C is the configuration's marked speed in Mflops.
	C float64
	// Machine is the analytic model that guesses where to sweep.
	Machine AnalyticMachine
	// Run measures the combination at one problem size.
	Run Runner
	// WorkAt is the exact workload polynomial at an integer size.
	WorkAt func(n int) float64
}

// The read-off procedure's fixed settings: the sweep spans
// [sweepLo, sweepHi] times the analytic guess, the trend is a
// trendDegree polynomial, and a target outside the measured range widens
// the sweep at most maxWiden times.
const (
	sweepLo     = 0.45
	sweepHi     = 1.8
	trendDegree = 3
	maxWiden    = 4
)

// StudyOptions sets the procedure's target and sweep density.
type StudyOptions struct {
	// TargetEff is the speed-efficiency set-point (required, in (0,1)).
	TargetEff float64
	// SweepPoints per efficiency curve (default 8, minimum 4).
	SweepPoints int
}

func (o StudyOptions) withDefaults() (StudyOptions, error) {
	if o.TargetEff <= 0 || o.TargetEff >= 1 {
		return o, fmt.Errorf("core: study target efficiency %g out of (0,1)", o.TargetEff)
	}
	if o.SweepPoints == 0 {
		o.SweepPoints = 8
	}
	if o.SweepPoints < 4 {
		return o, fmt.Errorf("core: study needs >= 4 sweep points, got %d", o.SweepPoints)
	}
	return o, nil
}

// sweepSizes builds strictly increasing integer sizes spanning the
// window around the guess.
func (o StudyOptions) sweepSizes(guess float64) []int {
	lo := math.Max(16, sweepLo*guess)
	hi := math.Max(lo*2, sweepHi*guess)
	sizes := make([]int, 0, o.SweepPoints)
	prev := 0
	for i := 0; i < o.SweepPoints; i++ {
		v := int(math.Round(lo + (hi-lo)*float64(i)/float64(o.SweepPoints-1)))
		if v <= prev {
			v = prev + 1
		}
		sizes = append(sizes, v)
		prev = v
	}
	return sizes
}

// ReadOffRequiredSize measures a sweep around the guess, fits the trend
// and reads off the size achieving the target efficiency, widening the
// sweep when the target falls outside the measured range.
func ReadOffRequiredSize(label string, c, target, guess float64, run Runner, opts StudyOptions) (EfficiencyCurve, float64, error) {
	o := opts
	o.TargetEff = target
	o, err := o.withDefaults()
	if err != nil {
		return EfficiencyCurve{}, 0, err
	}
	scale := 1.0
	var lastErr error
	for attempt := 0; attempt < maxWiden; attempt++ {
		curve, err := MeasureCurve(label, c, o.sweepSizes(guess*scale), trendDegree, run)
		if err != nil {
			return EfficiencyCurve{}, 0, err
		}
		n, err := curve.RequiredSize(target)
		if err == nil {
			return curve, n, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTargetUnreachable) {
			return EfficiencyCurve{}, 0, err
		}
		if curve.Points[len(curve.Points)-1].Eff < target {
			scale *= 2
		} else {
			scale /= 2
		}
	}
	return EfficiencyCurve{}, 0, fmt.Errorf("core: %s: read-off failed after widening: %w", label, lastErr)
}

// StudyRung is the per-configuration outcome.
type StudyRung struct {
	Label     string
	C         float64
	Curve     EfficiencyCurve
	RequiredN int
	Work      float64
}

// StudyResult is the full ladder outcome.
type StudyResult struct {
	Rungs []StudyRung
	// PsiMeasured chains ψ between consecutive rungs from measurement.
	PsiMeasured []float64
}

// RunStudy executes the procedure over the ladder.
func RunStudy(targets []StudyTarget, opts StudyOptions) (StudyResult, error) {
	if len(targets) < 2 {
		return StudyResult{}, fmt.Errorf("core: study needs >= 2 targets, got %d", len(targets))
	}
	o, err := opts.withDefaults()
	if err != nil {
		return StudyResult{}, err
	}
	var res StudyResult
	points := make([]ScalePoint, 0, len(targets))
	for _, tg := range targets {
		if tg.Run == nil || tg.WorkAt == nil {
			return StudyResult{}, fmt.Errorf("core: study target %q needs Run and WorkAt", tg.Label)
		}
		if tg.C <= 0 {
			return StudyResult{}, fmt.Errorf("%w: target %q C = %g", ErrNonPositive, tg.Label, tg.C)
		}
		guess, err := tg.Machine.RequiredN(o.TargetEff, 8, 5e6)
		if err != nil {
			return StudyResult{}, fmt.Errorf("core: study %s: analytic guess: %w", tg.Label, err)
		}
		curve, nReq, err := ReadOffRequiredSize(tg.Label, tg.C, o.TargetEff, guess, tg.Run, o)
		if err != nil {
			return StudyResult{}, fmt.Errorf("core: study %s: %w", tg.Label, err)
		}
		n := int(math.Round(nReq))
		rung := StudyRung{Label: tg.Label, C: tg.C, Curve: curve, RequiredN: n, Work: tg.WorkAt(n)}
		res.Rungs = append(res.Rungs, rung)
		points = append(points, ScalePoint{Label: tg.Label, C: tg.C, N: n, W: rung.Work})
	}
	res.PsiMeasured, err = PsiChain(points)
	if err != nil {
		return StudyResult{}, err
	}
	return res, nil
}
