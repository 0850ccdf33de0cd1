// Package numeric provides the small numerical toolkit the scalability
// pipeline depends on: polynomial least-squares fitting (the "trend lines"
// of the paper's Figures 1 and 2), polynomial evaluation and calculus,
// one-dimensional root finding used to read required problem sizes off a
// fitted efficiency curve, and basic descriptive statistics.
//
// Everything is implemented from scratch on float64 using only the
// standard library.
package numeric

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Polynomial represents a univariate polynomial by its coefficients in
// ascending order: Coeffs[i] multiplies x^i. The zero value is the zero
// polynomial.
type Polynomial struct {
	Coeffs []float64
}

// NewPolynomial returns a polynomial with the given ascending coefficients.
// Trailing zero coefficients are trimmed so Degree is meaningful.
func NewPolynomial(coeffs ...float64) Polynomial {
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	return Polynomial{Coeffs: trimTrailingZeros(c)}
}

func trimTrailingZeros(c []float64) []float64 {
	n := len(c)
	for n > 1 && c[n-1] == 0 {
		n--
	}
	return c[:n]
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	if len(p.Coeffs) == 0 {
		return 0
	}
	y := p.Coeffs[len(p.Coeffs)-1]
	for i := len(p.Coeffs) - 2; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// Add returns p + q.
func (p Polynomial) Add(q Polynomial) Polynomial {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	c := make([]float64, n)
	for i := range c {
		if i < len(p.Coeffs) {
			c[i] += p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			c[i] += q.Coeffs[i]
		}
	}
	return Polynomial{Coeffs: trimTrailingZeros(c)}
}

// Scale returns the polynomial with every coefficient multiplied by k.
func (p Polynomial) Scale(k float64) Polynomial {
	c := make([]float64, len(p.Coeffs))
	for i, v := range p.Coeffs {
		c[i] = k * v
	}
	return Polynomial{Coeffs: trimTrailingZeros(c)}
}

// String renders the polynomial in human-readable ascending form, e.g.
// "1.5 + 2x - 0.25x^2".
func (p Polynomial) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	wrote := false
	for i, c := range p.Coeffs {
		if c == 0 && len(p.Coeffs) > 1 {
			continue
		}
		if wrote {
			if c >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				c = -c
			}
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%g", c)
		case 1:
			fmt.Fprintf(&b, "%gx", c)
		default:
			fmt.Fprintf(&b, "%gx^%d", c, i)
		}
		wrote = true
	}
	if !wrote {
		return "0"
	}
	return b.String()
}

// ErrNoData is returned by routines that require at least one sample.
var ErrNoData = errors.New("numeric: no data points")

// IsFinite reports whether v is neither NaN nor infinite.
func IsFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
