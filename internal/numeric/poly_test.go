package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestPolynomialEvalHorner(t *testing.T) {
	p := NewPolynomial(1, -2, 3) // 1 - 2x + 3x^2
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 2},
		{2, 9},
		{-1, 6},
		{0.5, 0.75},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestPolynomialZeroValue(t *testing.T) {
	var p Polynomial
	if got := p.Eval(3); got != 0 {
		t.Errorf("zero polynomial Eval = %g, want 0", got)
	}
	if s := p.String(); s != "0" {
		t.Errorf("zero polynomial String = %q, want \"0\"", s)
	}
}

func TestPolynomialTrimTrailingZeros(t *testing.T) {
	p := NewPolynomial(1, 2, 0, 0)
	if len(p.Coeffs) != 2 {
		t.Errorf("len(Coeffs) = %d, want 2", len(p.Coeffs))
	}
}

func TestPolynomialAddScale(t *testing.T) {
	p := NewPolynomial(1, 2)
	q := NewPolynomial(0, -2, 5)
	sum := p.Add(q)
	for _, x := range []float64{-2, 0, 1, 3.5} {
		if got, want := sum.Eval(x), p.Eval(x)+q.Eval(x); !almostEq(got, want, 1e-12) {
			t.Errorf("Add Eval(%g) = %g, want %g", x, got, want)
		}
	}
	s := p.Scale(-3)
	for _, x := range []float64{-1, 0, 2} {
		if got, want := s.Eval(x), -3*p.Eval(x); !almostEq(got, want, 1e-12) {
			t.Errorf("Scale Eval(%g) = %g, want %g", x, got, want)
		}
	}
	// Cancellation trims degree.
	z := p.Add(p.Scale(-1))
	if len(z.Coeffs) > 1 || z.Eval(4) != 0 {
		t.Errorf("p + (-p) = %v, want zero polynomial", z)
	}
}

func TestPolynomialString(t *testing.T) {
	cases := []struct {
		p    Polynomial
		want string
	}{
		{NewPolynomial(1.5, 2, -0.25), "1.5 + 2x - 0.25x^2"},
		{NewPolynomial(0, 1), "1x"},
		{NewPolynomial(-1), "-1"},
		{NewPolynomial(0, 0, 2), "2x^2"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: Add is commutative and Eval is linear over Add, for random
// small polynomials.
func TestPolynomialAddCommutativeQuick(t *testing.T) {
	f := func(a, b [4]float64, x float64) bool {
		if !IsFinite(x) || math.Abs(x) > 1e3 {
			return true
		}
		for _, v := range a {
			if !IsFinite(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		for _, v := range b {
			if !IsFinite(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		p := NewPolynomial(a[:]...)
		q := NewPolynomial(b[:]...)
		l := p.Add(q).Eval(x)
		r := q.Add(p).Eval(x)
		return almostEq(l, r, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolyMulProperty(t *testing.T) {
	f := func(a, b [3]float64, x float64) bool {
		if !IsFinite(x) || math.Abs(x) > 100 {
			return true
		}
		for _, v := range append(a[:], b[:]...) {
			if !IsFinite(v) || math.Abs(v) > 1e4 {
				return true
			}
		}
		p := NewPolynomial(a[:]...)
		q := NewPolynomial(b[:]...)
		got := polyMul(p, q).Eval(x)
		want := p.Eval(x) * q.Eval(x)
		return almostEq(got, want, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
