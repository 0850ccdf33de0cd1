package numeric

import (
	"math"
	"testing"
)

// TestSplitMixReferenceStream pins the stream to the reference
// SplitMix64 outputs for seed 1234567, and SplitMix64 to the stream's
// first draw.
func TestSplitMixReferenceStream(t *testing.T) {
	g := SplitMix(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423} {
		if got := g.Next(); got != want {
			t.Errorf("draw %d = %d, want %d", i, got, want)
		}
	}
	if got := SplitMix64(1234567); got != 6457827717110365317 {
		t.Errorf("SplitMix64(1234567) = %d", got)
	}
}

// TestSplitMixUniformAndExp checks that Uniform stays in (0, 1] and Exp
// stays finite and non-negative, so the seeded gaps can never be
// negative or infinite.
func TestSplitMixUniformAndExp(t *testing.T) {
	g := SplitMix(7)
	for range 10000 {
		if u := g.Uniform(); u <= 0 || u > 1 {
			t.Fatalf("Uniform = %g outside (0, 1]", u)
		}
		if e := g.Exp(3); e < 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("Exp(3) = %g", e)
		}
	}
}
