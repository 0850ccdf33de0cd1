package core

import (
	"math"
	"testing"

	"repro/internal/numeric"
)

// studyTarget builds a synthetic target whose runner follows its machine
// model exactly (so every derived quantity is analytically checkable).
func studyTarget(label string, c float64, p int) StudyTarget {
	m := gePredictMachine(label, c, p)
	return StudyTarget{
		Label:   label,
		C:       c,
		Machine: m,
		Run: func(n int) (float64, float64, error) {
			nf := float64(n)
			return m.Work(nf), m.TimeMS(nf), nil
		},
		WorkAt: func(n int) float64 { return m.Work(float64(n)) },
	}
}

func TestRunStudyEndToEnd(t *testing.T) {
	targets := []StudyTarget{
		studyTarget("C2", 116.5, 3),
		studyTarget("C4", 242.7, 5),
		studyTarget("C8", 411.1, 9),
	}
	res, err := RunStudy(targets, StudyOptions{TargetEff: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]AnalyticMachine, len(targets))
	for i, tg := range targets {
		machines[i] = tg.Machine
	}
	preds, _, psiPredicted, err := PredictChain(machines, 0.3, 8, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rungs) != 3 || len(res.PsiMeasured) != 2 || len(psiPredicted) != 2 {
		t.Fatalf("shape: %d rungs, %d measured, %d predicted",
			len(res.Rungs), len(res.PsiMeasured), len(psiPredicted))
	}
	for i, r := range res.Rungs {
		// The runner IS the machine, so the read-off must match the
		// analytic required N closely and verification must land on 0.3.
		if numeric.RelErr(float64(r.RequiredN), preds[i].N) > 0.05 {
			t.Errorf("rung %d: required %d vs predicted %.0f", i, r.RequiredN, preds[i].N)
		}
		eff, err := r.Curve.VerifyAt(r.RequiredN, targets[i].Run)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eff-0.3) > 0.01 {
			t.Errorf("rung %d: verified E_s = %g", i, eff)
		}
		if r.Work <= 0 || r.Curve.Fit.RSquared < 0.99 {
			t.Errorf("rung %d: work %g, R² %g", i, r.Work, r.Curve.Fit.RSquared)
		}
		if i > 0 && res.Rungs[i].RequiredN <= res.Rungs[i-1].RequiredN {
			t.Errorf("required N not increasing at rung %d", i)
		}
	}
	// Measured and predicted chains agree tightly when the runner follows
	// the model exactly.
	for i := range res.PsiMeasured {
		if math.Abs(res.PsiMeasured[i]-psiPredicted[i]) > 0.02 {
			t.Errorf("step %d: measured ψ %g vs predicted %g",
				i, res.PsiMeasured[i], psiPredicted[i])
		}
		if res.PsiMeasured[i] <= 0 || res.PsiMeasured[i] >= 1 {
			t.Errorf("step %d: ψ %g out of (0,1)", i, res.PsiMeasured[i])
		}
	}
}

func TestRunStudyValidation(t *testing.T) {
	good := studyTarget("C2", 116.5, 3)
	other := studyTarget("C4", 242.7, 5)
	if _, err := RunStudy([]StudyTarget{good}, StudyOptions{TargetEff: 0.3}); err == nil {
		t.Error("single target accepted")
	}
	if _, err := RunStudy([]StudyTarget{good, other}, StudyOptions{}); err == nil {
		t.Error("zero target efficiency accepted")
	}
	if _, err := RunStudy([]StudyTarget{good, other}, StudyOptions{TargetEff: 0.3, SweepPoints: 2}); err == nil {
		t.Error("too few sweep points accepted")
	}
	bad := good
	bad.Run = nil
	if _, err := RunStudy([]StudyTarget{bad, other}, StudyOptions{TargetEff: 0.3}); err == nil {
		t.Error("nil runner accepted")
	}
	bad = good
	bad.WorkAt = nil
	if _, err := RunStudy([]StudyTarget{bad, other}, StudyOptions{TargetEff: 0.3}); err == nil {
		t.Error("nil WorkAt accepted")
	}
	bad = good
	bad.C = 0
	if _, err := RunStudy([]StudyTarget{bad, other}, StudyOptions{TargetEff: 0.3}); err == nil {
		t.Error("zero C accepted")
	}
	// Unreachable target (above the asymptote) surfaces the guess error.
	if _, err := RunStudy([]StudyTarget{good, other}, StudyOptions{TargetEff: 0.6}); err == nil {
		t.Error("above-asymptote target accepted")
	}
}

func TestReadOffWidensWhenGuessIsOff(t *testing.T) {
	tg := studyTarget("C2", 116.5, 3)
	// Give a guess 8x too small: widening must still find the target.
	m := tg.Machine
	trueN, err := m.RequiredN(0.3, 8, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	curve, n, err := ReadOffRequiredSize("C2", tg.C, 0.3, trueN/8, tg.Run, StudyOptions{TargetEff: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(n, trueN) > 0.05 {
		t.Errorf("widened read-off %g vs true %g", n, trueN)
	}
	if len(curve.Points) == 0 {
		t.Error("no curve returned")
	}
	// And 8x too large.
	_, n, err = ReadOffRequiredSize("C2", tg.C, 0.3, trueN*8, tg.Run, StudyOptions{TargetEff: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.RelErr(n, trueN) > 0.05 {
		t.Errorf("narrowed read-off %g vs true %g", n, trueN)
	}
}
