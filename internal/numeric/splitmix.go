package numeric

import "math"

// splitMixGamma is SplitMix64's state increment, the golden-ratio odd
// constant.
const splitMixGamma = 0x9E3779B97F4A7C15

// SplitMix64 is the SplitMix64 output function: it steps x by the
// golden-ratio increment and finalizes it into well-mixed 64-bit bits.
// It is a fixed permutation, so it turns structured coordinates into
// uniform bits and is deterministic across platforms and Go releases.
func SplitMix64(x uint64) uint64 {
	x += splitMixGamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SplitMix is a SplitMix64 stream whose value is its state:
// SplitMix(seed) starts the stream, and each draw advances it in place.
// It keeps the seeded job-stream gaps, node outages and membership
// cycles independent of math/rand, whose streams may change between Go
// releases.
type SplitMix uint64

// Next returns the stream's next 64 bits.
func (s *SplitMix) Next() uint64 {
	x := SplitMix64(uint64(*s))
	*s += splitMixGamma
	return x
}

// Uniform returns a double in (0, 1]: never 0, so its log is finite.
func (s *SplitMix) Uniform() float64 {
	return (float64(s.Next()>>11) + 1) / float64(1<<53)
}

// Exp draws an exponential with the given mean by inverse transform.
func (s *SplitMix) Exp(mean float64) float64 {
	return -mean * math.Log(s.Uniform())
}
