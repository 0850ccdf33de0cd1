package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestAchievedSpeed(t *testing.T) {
	// 1e6 flops in 10 ms = 1e5 flops/ms = 100 Mflops.
	s, err := AchievedSpeed(1e6, 10)
	if err != nil || !almostEq(s, 100, 1e-12) {
		t.Errorf("AchievedSpeed = %g, %v; want 100", s, err)
	}
	if _, err := AchievedSpeed(0, 10); err == nil {
		t.Error("zero work accepted")
	}
	if _, err := AchievedSpeed(1, 0); err == nil {
		t.Error("zero time accepted")
	}
	if _, err := AchievedSpeed(1, -1); err == nil {
		t.Error("negative time accepted")
	}
}

func TestSpeedEfficiency(t *testing.T) {
	// Achieved 100 Mflops on a 400 Mflops system: E_s = 0.25.
	e, err := SpeedEfficiency(1e6, 10, 400)
	if err != nil || !almostEq(e, 0.25, 1e-12) {
		t.Errorf("SpeedEfficiency = %g, %v; want 0.25", e, err)
	}
	if _, err := SpeedEfficiency(1e6, 10, 0); err == nil {
		t.Error("zero marked speed accepted")
	}
}

func TestPsiIdealAndTypical(t *testing.T) {
	// Ideal: W' = W·C'/C -> ψ = 1.
	w := 1e9
	c, cp := 100.0, 400.0
	wIdeal := w * cp / c
	psi, err := Psi(c, w, cp, wIdeal)
	if err != nil || !almostEq(psi, 1, 1e-12) {
		t.Errorf("ideal ψ = %g, %v", psi, err)
	}
	// Superlinear work growth -> ψ < 1.
	psi, err = Psi(c, w, cp, 2*wIdeal)
	if err != nil || !almostEq(psi, 0.5, 1e-12) {
		t.Errorf("ψ = %g, %v; want 0.5", psi, err)
	}
	if _, err := Psi(0, 1, 1, 1); err == nil {
		t.Error("zero C accepted")
	}
	if _, err := Psi(1, 1, 1, 0); err == nil {
		t.Error("zero W' accepted")
	}
}

func TestIsospeedSpecialCase(t *testing.T) {
	// Homogeneous: C = p·Cnode cancels, ψ(C,C') == ψ(p,p').
	const cNode = 42.1
	p, pp := 4, 16
	w, wp := 1e8, 6e8
	general, err := Psi(float64(p)*cNode, w, float64(pp)*cNode, wp)
	if err != nil {
		t.Fatal(err)
	}
	special, err := IsospeedPsi(p, w, pp, wp)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(general, special, 1e-12) {
		t.Errorf("general %g != special %g", general, special)
	}
	if _, err := IsospeedPsi(0, 1, 1, 1); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestPsiChain(t *testing.T) {
	points := []ScalePoint{
		{Label: "C2", C: 100, N: 300, W: 1e8},
		{Label: "C4", C: 200, N: 450, W: 2.5e8},
		{Label: "C8", C: 400, N: 700, W: 7e8},
	}
	chain, err := PsiChain(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain len %d", len(chain))
	}
	want0 := (200.0 * 1e8) / (100.0 * 2.5e8)
	want1 := (400.0 * 2.5e8) / (200.0 * 7e8)
	if !almostEq(chain[0], want0, 1e-12) || !almostEq(chain[1], want1, 1e-12) {
		t.Errorf("chain = %v, want [%g %g]", chain, want0, want1)
	}
	if _, err := PsiChain(points[:1]); err == nil {
		t.Error("single point accepted")
	}
	bad := []ScalePoint{{C: 1, W: 1}, {C: 0, W: 1}}
	if _, err := PsiChain(bad); err == nil {
		t.Error("invalid point accepted")
	}
}

// Property: ψ is scale-invariant in (C, C') and (W, W') separately, and
// anti-monotone in W'.
func TestPsiPropertiesQuick(t *testing.T) {
	f := func(rc, rw, k uint16) bool {
		c := 10 + float64(rc%1000)
		w := 1e6 + float64(rw)*1e3
		scale := 1 + float64(k%50)
		psi1, err1 := Psi(c, w, 2*c, 3*w)
		psi2, err2 := Psi(scale*c, w, scale*2*c, 3*w)
		psi3, err3 := Psi(c, scale*w, 2*c, scale*3*w)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if !almostEq(psi1, psi2, 1e-9) || !almostEq(psi1, psi3, 1e-9) {
			return false
		}
		// Larger scaled work -> smaller ψ.
		psiBig, err := Psi(c, w, 2*c, 4*w)
		return err == nil && psiBig < psi1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
