// Package core implements the paper's primary contribution: the
// isospeed-efficiency scalability metric for heterogeneous (and
// homogeneous) computing systems, together with its measurement pipeline,
// the analytic results of §3.4 (Theorem 1 and Corollaries 1–2), the
// prediction method of §4.5, and the related metrics the paper discusses
// (homogeneous isospeed, isoefficiency, productivity-based scalability,
// Pastor–Bosque heterogeneous efficiency) as baselines.
//
// Units used consistently throughout:
//
//	work W        flops
//	time T        milliseconds
//	marked speed  Mflops (= 1e3 flops per millisecond)
//
// The central definitions (paper §3):
//
//	Definition 1/2: marked speed C_i per node; C = ΣC_i (cluster package).
//	Definition 3:   speed-efficiency E_s = S/C = W/(T·C).
//	Definition 4:   an algorithm–system combination is scalable if E_s can
//	                be held constant as C grows, by growing W.
//	Scalability:    ψ(C, C') = (C'·W)/(C·W'), ideal value 1.
package core

import (
	"errors"
	"fmt"
)

// ErrNonPositive reports an argument that must be strictly positive.
var ErrNonPositive = errors.New("core: argument must be positive")

// AchievedSpeed returns S = W/T in Mflops (paper: "work divided by
// execution time").
func AchievedSpeed(workFlops, timeMS float64) (float64, error) {
	if workFlops <= 0 {
		return 0, fmt.Errorf("%w: work %g", ErrNonPositive, workFlops)
	}
	if timeMS <= 0 {
		return 0, fmt.Errorf("%w: time %g", ErrNonPositive, timeMS)
	}
	return workFlops / timeMS / 1e3, nil
}

// SpeedEfficiency returns E_s = W/(T·C) (Definition 3): achieved speed
// divided by marked speed.
func SpeedEfficiency(workFlops, timeMS, markedMflops float64) (float64, error) {
	s, err := AchievedSpeed(workFlops, timeMS)
	if err != nil {
		return 0, err
	}
	if markedMflops <= 0 {
		return 0, fmt.Errorf("%w: marked speed %g", ErrNonPositive, markedMflops)
	}
	return s / markedMflops, nil
}

// Psi is the isospeed-efficiency scalability function
//
//	ψ(C, C') = (C'·W) / (C·W')
//
// where W and W' are the work needed to hold speed-efficiency constant at
// system sizes C and C'. In the ideal case W' = W·C'/C and ψ = 1;
// in practice W' grows faster and ψ < 1.
func Psi(c, w, cPrime, wPrime float64) (float64, error) {
	for _, v := range []struct {
		name string
		val  float64
	}{{"C", c}, {"W", w}, {"C'", cPrime}, {"W'", wPrime}} {
		if v.val <= 0 {
			return 0, fmt.Errorf("%w: %s = %g", ErrNonPositive, v.name, v.val)
		}
	}
	return (cPrime * w) / (c * wPrime), nil
}

// IsospeedPsi is the homogeneous isospeed scalability of Sun & Rover:
// ψ(p, p') = (p'·W)/(p·W'). It is the special case of Psi with all marked
// speeds equal (C = p·C_node), kept as the baseline the paper generalizes.
func IsospeedPsi(p int, w float64, pPrime int, wPrime float64) (float64, error) {
	if p <= 0 || pPrime <= 0 {
		return 0, fmt.Errorf("%w: p=%d p'=%d", ErrNonPositive, p, pPrime)
	}
	return Psi(float64(p), w, float64(pPrime), wPrime)
}

// ScalePoint is one rung of a scalability ladder: a system of marked speed
// C needing work W (problem size N) to reach the target speed-efficiency.
type ScalePoint struct {
	Label string  // e.g. "C4"
	C     float64 // marked speed, Mflops
	N     int     // problem size achieving the target efficiency
	W     float64 // corresponding work, flops
}

// PsiChain computes ψ between consecutive ladder points — the paper's
// Tables 4, 5 and 7 are exactly such chains.
func PsiChain(points []ScalePoint) ([]float64, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("core: PsiChain needs >= 2 points, got %d", len(points))
	}
	out := make([]float64, len(points)-1)
	for i := 1; i < len(points); i++ {
		psi, err := Psi(points[i-1].C, points[i-1].W, points[i].C, points[i].W)
		if err != nil {
			return nil, fmt.Errorf("core: PsiChain step %d: %w", i, err)
		}
		out[i-1] = psi
	}
	return out, nil
}
