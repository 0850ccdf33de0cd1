package core

import (
	"errors"
	"fmt"
)

// Memory-bounded scalability. The paper builds on Sun & Ni's
// memory-bounded speedup (its reference [9]): problem size cannot grow
// arbitrarily with system size, it is capped by aggregate memory. This
// file combines that constraint with the isospeed-efficiency condition:
// a combination may be time-scalable (a W' keeping E_s constant exists)
// yet memory-bounded (that W' no longer fits), in which case the
// achievable efficiency at the scaled size is capped below the target.

// MemoryNeed returns the bytes a rank needs at problem size n given its
// work share in [0,1] (share = C_i/C for speed-proportional
// distributions).
type MemoryNeed func(n float64, share float64) float64

// NodeMemory describes one rank's capacity and work share.
type NodeMemory struct {
	MemBytes float64
	Share    float64 // fraction of work (C_i/C)
}

// MaxProblemSize returns the largest integer n such that every rank's
// memory need fits. The need is assumed non-decreasing in n; binary
// search over [1, limit].
func MaxProblemSize(ranks []NodeMemory, need MemoryNeed, limit int) (int, error) {
	if len(ranks) == 0 {
		return 0, errors.New("core: MaxProblemSize needs ranks")
	}
	if need == nil {
		return 0, errors.New("core: MaxProblemSize needs a MemoryNeed")
	}
	if limit < 1 {
		return 0, fmt.Errorf("core: MaxProblemSize limit %d < 1", limit)
	}
	for i, r := range ranks {
		if r.MemBytes <= 0 {
			return 0, fmt.Errorf("core: rank %d has non-positive memory %g", i, r.MemBytes)
		}
		if r.Share < 0 || r.Share > 1 {
			return 0, fmt.Errorf("core: rank %d share %g out of [0,1]", i, r.Share)
		}
	}
	fits := func(n int) bool {
		for _, r := range ranks {
			if need(float64(n), r.Share) > r.MemBytes {
				return false
			}
		}
		return true
	}
	if !fits(1) {
		return 0, errors.New("core: even n=1 does not fit")
	}
	lo, hi := 1, limit
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// MemBoundResult reports the memory-bounded analysis of one ladder rung.
type MemBoundResult struct {
	Label string
	// RequiredN keeps the target efficiency (the isospeed-efficiency
	// condition's solution, from measurement or model).
	RequiredN float64
	// MaxN is the memory capacity limit.
	MaxN int
	// Bounded is true when RequiredN exceeds MaxN: the target efficiency
	// is unreachable on this configuration regardless of time scalability.
	Bounded bool
	// AchievableEff is the model efficiency at min(RequiredN, MaxN).
	AchievableEff float64
}

// MemoryBoundedCheck combines an analytic machine with a memory model:
// does the problem size that the isospeed-efficiency condition demands
// still fit? Returns the per-rung verdict.
func MemoryBoundedCheck(m AnalyticMachine, ranks []NodeMemory, need MemoryNeed, target, loN, hiN float64) (MemBoundResult, error) {
	if err := m.Validate(); err != nil {
		return MemBoundResult{}, err
	}
	reqN, err := m.RequiredN(target, loN, hiN)
	if err != nil {
		return MemBoundResult{}, err
	}
	maxN, err := MaxProblemSize(ranks, need, int(hiN))
	if err != nil {
		return MemBoundResult{}, err
	}
	res := MemBoundResult{Label: m.Label, RequiredN: reqN, MaxN: maxN}
	if float64(maxN) < reqN {
		res.Bounded = true
		res.AchievableEff = m.Efficiency(float64(maxN))
	} else {
		res.AchievableEff = target
	}
	return res, nil
}
