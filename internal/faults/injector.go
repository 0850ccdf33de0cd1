package faults

import (
	"math"

	"repro/internal/numeric"
)

// Injector is the runtime face of a Plan: the mpi engines query it for
// crash instants and per-transmission drop decisions. All methods are
// pure functions of the plan, so concurrent ranks may share one Injector
// without synchronization and both engines see identical faults.
type Injector struct {
	seed           int64
	dropProb       float64
	retryTimeoutMS float64
	maxRetries     int
	crashAt        map[int]float64 // nil when no crashes
}

// CrashTimeMS returns the virtual instant at which rank crashes, if any.
func (in *Injector) CrashTimeMS(rank int) (float64, bool) {
	t, ok := in.crashAt[rank]
	return t, ok
}

// DropSend decides whether transmission number seq from rank `from` to
// rank `to` is lost. seq counts every attempt (retries draw fresh), so
// the decision is a pure function of (seed, from, to, seq) — identical
// across engines and runs regardless of interleaving.
func (in *Injector) DropSend(from, to, seq int) bool {
	if in.dropProb == 0 {
		return false
	}
	return hash01(in.seed, from, to, seq) < in.dropProb
}

// RetryDelayMS is the ack-timeout charged after the failed-th consecutive
// loss (0-based) before the next attempt: the shared Backoff shape over
// the plan's retry timeout.
func (in *Injector) RetryDelayMS(failed int) float64 {
	return Backoff(in.retryTimeoutMS, failed)
}

// Backoff is the package's one bounded exponential-backoff shape:
// base * 2^attempt for the attempt-th consecutive failure (0-based),
// with the exponent capped so the delay stays finite for any budget.
// The message-retry protocol and the job-stream requeue path both price
// their retries with it.
func Backoff(baseMS float64, attempt int) float64 {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 30 {
		attempt = 30
	}
	return baseMS * float64(uint64(1)<<uint(attempt))
}

// MaxSendAttempts is the total transmission budget per payload (first
// attempt plus retries).
func (in *Injector) MaxSendAttempts() int { return in.maxRetries + 1 }

// hash01 maps (seed, from, to, seq) to a uniform float64 in [0,1).
func hash01(seed int64, from, to, seq int) float64 {
	x := numeric.SplitMix64(uint64(seed))
	x = numeric.SplitMix64(x ^ uint64(from)*0xD6E8FEB86659FD93)
	x = numeric.SplitMix64(x ^ uint64(to)*0xA5A5A5A5A5A5A5A5)
	x = numeric.SplitMix64(x ^ uint64(seq)*0xC2B2AE3D27D4EB4F)
	return float64(x>>11) / (1 << 53)
}

// isBad reports NaN or infinity.
func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
