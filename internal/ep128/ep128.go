// Package ep128 implements 128-bit extended precision arithmetic (EPA) using
// the double-double technique: a value is represented as an unevaluated sum
// of two float64 components, giving roughly 106 bits of significand
// (about 32 decimal digits).
//
// The SC2001 Enzo paper (§3.5) requires extended precision only for
// *absolute* positions and times, where a relative precision of
// Δx/x ~ 1e-14 or better is needed to distinguish neighbouring cells at 34
// levels of refinement. Native 128-bit floating point was patchily supported
// and up to 30x slower on the machines of the day; the paper cites Bailey's
// software multiprecision approach as the portable alternative. This package
// is that alternative: branch-free error-free transformations (TwoSum,
// TwoProd with FMA) composed into a small arithmetic kernel.
//
// The zero value of Dd is 0.
package ep128

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dd is a double-double extended precision value: the represented number is
// Hi + Lo, with |Lo| <= ulp(Hi)/2. Hi carries the leading 53 bits of
// significand and Lo the trailing bits.
type Dd struct {
	Hi float64
	Lo float64
}

// Zero is the additive identity.
var Zero = Dd{}

// One is the multiplicative identity.
var One = Dd{Hi: 1}

// Eps is the effective machine epsilon of the double-double format,
// 2^-104 ≈ 4.93e-32.
var Eps = math.Ldexp(1, -104)

// FromFloat64 converts a float64 exactly.
func FromFloat64(x float64) Dd { return Dd{Hi: x} }

// FromInt converts an integer exactly (int64 values are exactly
// representable because the two components provide 106 bits).
func FromInt(n int64) Dd {
	hi := float64(n)
	lo := float64(n - int64(hi))
	return Dd{Hi: hi, Lo: lo}
}

// twoSum returns s, e such that s = fl(a+b) and s+e = a+b exactly.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return
}

// quickTwoSum is twoSum under the precondition |a| >= |b|.
func quickTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return
}

// twoProd returns p, e such that p = fl(a*b) and p+e = a*b exactly.
// math.FMA compiles to a hardware fused multiply-add where available.
func twoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return
}

// renorm re-establishes the non-overlapping invariant.
func renorm(hi, lo float64) Dd {
	s, e := quickTwoSum(hi, lo)
	return Dd{Hi: s, Lo: e}
}

// Add returns a + b.
func (a Dd) Add(b Dd) Dd {
	s, e := twoSum(a.Hi, b.Hi)
	e += a.Lo + b.Lo
	return renorm(s, e)
}

// AddFloat returns a + x for a float64 x.
func (a Dd) AddFloat(x float64) Dd {
	s, e := twoSum(a.Hi, x)
	e += a.Lo
	return renorm(s, e)
}

// Sub returns a - b.
func (a Dd) Sub(b Dd) Dd { return a.Add(b.Neg()) }

// SubFloat returns a - x for a float64 x.
func (a Dd) SubFloat(x float64) Dd { return a.AddFloat(-x) }

// Neg returns -a.
func (a Dd) Neg() Dd { return Dd{Hi: -a.Hi, Lo: -a.Lo} }

// Mul returns a * b.
func (a Dd) Mul(b Dd) Dd {
	p, e := twoProd(a.Hi, b.Hi)
	e += a.Hi*b.Lo + a.Lo*b.Hi
	return renorm(p, e)
}

// MulFloat returns a * x for a float64 x.
func (a Dd) MulFloat(x float64) Dd {
	p, e := twoProd(a.Hi, x)
	e += a.Lo * x
	return renorm(p, e)
}

// Div returns a / b. Division by zero yields ±Inf components like float64.
func (a Dd) Div(b Dd) Dd {
	q1 := a.Hi / b.Hi
	r := a.Sub(b.MulFloat(q1))
	q2 := r.Hi / b.Hi
	r = r.Sub(b.MulFloat(q2))
	q3 := r.Hi / b.Hi
	s, e := quickTwoSum(q1, q2)
	return renorm(s, e+q3)
}

// DivFloat returns a / x for a float64 x.
func (a Dd) DivFloat(x float64) Dd { return a.Div(FromFloat64(x)) }

// Sqr returns a*a, slightly cheaper than Mul(a, a).
func (a Dd) Sqr() Dd {
	p, e := twoProd(a.Hi, a.Hi)
	e += 2 * a.Hi * a.Lo
	return renorm(p, e)
}

// Sqrt returns the square root of a, computed with one Newton step
// refining the float64 estimate (sufficient for full dd accuracy).
// Sqrt of a negative value returns NaN components.
func (a Dd) Sqrt() Dd {
	if a.Hi == 0 && a.Lo == 0 {
		return Zero
	}
	if a.Hi < 0 {
		return Dd{Hi: math.NaN(), Lo: math.NaN()}
	}
	x := 1 / math.Sqrt(a.Hi)
	ax := a.MulFloat(x)
	// Newton: sqrt(a) ≈ ax + (a - ax²)·x/2
	diff := a.Sub(ax.Sqr())
	return ax.Add(diff.MulFloat(x * 0.5))
}

// Abs returns |a|.
func (a Dd) Abs() Dd {
	if a.Hi < 0 || (a.Hi == 0 && a.Lo < 0) {
		return a.Neg()
	}
	return a
}

// Float64 rounds to the nearest float64.
func (a Dd) Float64() float64 { return a.Hi + a.Lo }

// Cmp compares a and b, returning -1, 0 or +1.
func (a Dd) Cmp(b Dd) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// Less reports a < b.
func (a Dd) Less(b Dd) bool { return a.Cmp(b) < 0 }

// IsZero reports whether a represents exactly zero.
func (a Dd) IsZero() bool { return a.Hi == 0 && a.Lo == 0 }

// Sign returns -1, 0 or +1.
func (a Dd) Sign() int {
	switch {
	case a.Hi > 0 || (a.Hi == 0 && a.Lo > 0):
		return 1
	case a.Hi < 0 || (a.Hi == 0 && a.Lo < 0):
		return -1
	}
	return 0
}

// Floor returns the largest integral dd value <= a.
func (a Dd) Floor() Dd {
	fh := math.Floor(a.Hi)
	if fh != a.Hi {
		return Dd{Hi: fh}
	}
	// Hi already integral; floor the low part.
	return renorm(fh, math.Floor(a.Lo))
}

// String formats with ~32 significant digits.
func (a Dd) String() string {
	return a.Text(32)
}

// Text formats a with the given number of significant decimal digits
// (capped at 34).
func (a Dd) Text(digits int) string {
	if digits <= 0 {
		digits = 1
	}
	if digits > 34 {
		digits = 34
	}
	if math.IsNaN(a.Hi) {
		return "NaN"
	}
	if math.IsInf(a.Hi, 0) {
		if a.Hi > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	if a.IsZero() {
		return "0"
	}
	neg := a.Sign() < 0
	v := a.Abs()
	// Decimal exponent of leading digit.
	exp := int(math.Floor(math.Log10(v.Hi)))
	// Scale v into [1, 10).
	v = v.Mul(pow10dd(-exp))
	// Guard against log10 rounding.
	for v.Hi >= 10 {
		v = v.DivFloat(10)
		exp++
	}
	for v.Hi < 1 {
		v = v.MulFloat(10)
		exp--
	}
	var sb strings.Builder
	if neg {
		sb.WriteByte('-')
	}
	for i := 0; i < digits; i++ {
		d := int(math.Floor(v.Hi))
		if d < 0 {
			d = 0
		}
		if d > 9 {
			d = 9
		}
		sb.WriteByte(byte('0' + d))
		if i == 0 && digits > 1 {
			sb.WriteByte('.')
		}
		v = v.SubFloat(float64(d)).MulFloat(10)
	}
	sb.WriteString("e")
	sb.WriteString(strconv.Itoa(exp))
	return sb.String()
}

// pow10dd returns 10^n as a Dd for moderate |n|.
func pow10dd(n int) Dd {
	r := One
	ten := FromFloat64(10)
	tenth := One.Div(ten)
	if n >= 0 {
		for i := 0; i < n; i++ {
			r = r.Mul(ten)
		}
	} else {
		for i := 0; i < -n; i++ {
			r = r.Mul(tenth)
		}
	}
	return r
}

// Parse parses a decimal string (optionally with exponent) into a Dd,
// accumulating digits in extended precision so that up to ~32 significant
// digits survive.
func Parse(s string) (Dd, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Zero, fmt.Errorf("ep128: empty string")
	}
	neg := false
	i := 0
	if s[i] == '+' || s[i] == '-' {
		neg = s[i] == '-'
		i++
	}
	v := Zero
	seenDigit := false
	frac := 0
	inFrac := false
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v.MulFloat(10).AddFloat(float64(c - '0'))
			if inFrac {
				frac++
			}
			seenDigit = true
		case c == '.':
			if inFrac {
				return Zero, fmt.Errorf("ep128: bad number %q", s)
			}
			inFrac = true
		case c == 'e' || c == 'E':
			if !seenDigit {
				return Zero, fmt.Errorf("ep128: bad number %q", s)
			}
			e, err := strconv.Atoi(s[i+1:])
			if err != nil {
				return Zero, fmt.Errorf("ep128: bad exponent in %q", s)
			}
			v = v.Mul(pow10dd(e - frac))
			if neg {
				v = v.Neg()
			}
			return v, nil
		default:
			return Zero, fmt.Errorf("ep128: bad character %q in %q", c, s)
		}
	}
	if !seenDigit {
		return Zero, fmt.Errorf("ep128: bad number %q", s)
	}
	v = v.Mul(pow10dd(-frac))
	if neg {
		v = v.Neg()
	}
	return v, nil
}
