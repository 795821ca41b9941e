package ep128

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicArithmetic(t *testing.T) {
	a := FromFloat64(1.5)
	b := FromFloat64(2.25)
	if got := a.Add(b).Float64(); got != 3.75 {
		t.Errorf("1.5+2.25 = %v, want 3.75", got)
	}
	if got := a.Sub(b).Float64(); got != -0.75 {
		t.Errorf("1.5-2.25 = %v, want -0.75", got)
	}
	if got := a.Mul(b).Float64(); got != 3.375 {
		t.Errorf("1.5*2.25 = %v, want 3.375", got)
	}
	if got := b.Div(a).Float64(); got != 1.5 {
		t.Errorf("2.25/1.5 = %v, want 1.5", got)
	}
}

func TestPrecisionBeyondFloat64(t *testing.T) {
	// (1 + 2^-60) - 1 == 2^-60 exactly in dd, but 0 in float64.
	tiny := math.Ldexp(1, -60)
	x := One.AddFloat(tiny)
	d := x.Sub(One)
	if d.Float64() != tiny {
		t.Fatalf("(1+2^-60)-1 = %v, want %v", d.Float64(), tiny)
	}
	if 1.0+tiny-1.0 == tiny {
		t.Fatalf("test premise broken: float64 resolved 2^-60")
	}
}

func TestCellPositionResolution(t *testing.T) {
	// The paper's requirement: distinguish x and x+dx at dx/x ~ 1e-14
	// (SDR 1e12 with a 100x guard). At dd precision the ratio can be
	// far smaller; verify at 1e-20.
	x := FromFloat64(0.7312)
	dx := x.MulFloat(1e-20)
	if x.Add(dx) == x {
		t.Fatal("x+dx not distinguishable from x at dx/x = 1e-20")
	}
	if !x.Add(dx).Sub(dx).Sub(x).Abs().Less(x.MulFloat(1e-30)) {
		t.Fatal("round trip x+dx-dx lost precision")
	}
}

func TestSqrt(t *testing.T) {
	for _, v := range []float64{2, 3, 0.5, 1e10, 1e-10, 7.25} {
		s := FromFloat64(v).Sqrt()
		back := s.Sqr().SubFloat(v).Abs().Float64()
		if back > v*1e-30 {
			t.Errorf("sqrt(%v)^2 error %v too large", v, back)
		}
	}
	if !FromFloat64(0).Sqrt().IsZero() {
		t.Error("sqrt(0) != 0")
	}
	if !math.IsNaN(FromFloat64(-1).Sqrt().Hi) {
		t.Error("sqrt(-1) should be NaN")
	}
}

func TestFromInt(t *testing.T) {
	n := int64(1)<<62 + 12345
	d := FromInt(n)
	// Value must round-trip through the two components exactly.
	if int64(d.Hi)+int64(d.Lo) != n {
		t.Fatalf("FromInt(%d) lost precision: hi=%v lo=%v", n, d.Hi, d.Lo)
	}
}

func TestCmpAndSign(t *testing.T) {
	a := FromFloat64(1)
	b := a.AddFloat(1e-25)
	if !a.Less(b) {
		t.Error("1 < 1+1e-25 should hold in dd")
	}
	if a.Cmp(a) != 0 {
		t.Error("Cmp(a,a) != 0")
	}
	if Zero.Sign() != 0 || One.Sign() != 1 || One.Neg().Sign() != -1 {
		t.Error("Sign broken")
	}
	if b.Cmp(a) != 1 {
		t.Error("Cmp order broken")
	}
}

func TestFloor(t *testing.T) {
	cases := []struct {
		in   Dd
		want float64
	}{
		{FromFloat64(3.7), 3},
		{FromFloat64(-3.7), -4},
		{FromFloat64(5), 5},
		{FromFloat64(5).AddFloat(1e-25), 5},
		{FromFloat64(5).SubFloat(1e-25), 4},
	}
	for _, c := range cases {
		if got := c.in.Floor().Float64(); got != c.want {
			t.Errorf("Floor(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseAndFormat(t *testing.T) {
	cases := []string{
		"1.5", "-2.25", "3e10", "0.125", "-0.0009765625", "1234567890123456789012345",
	}
	for _, s := range cases {
		v, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(v.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", v.String(), err)
		}
		diff := v.Sub(back).Abs()
		tol := v.Abs().MulFloat(1e-30).AddFloat(1e-300)
		if tol.Less(diff) {
			t.Errorf("Parse/String round trip for %q drifted: %v vs %v", s, v, back)
		}
	}
	for _, bad := range []string{"", "abc", "1.2.3", "--5", "1e", "."} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParsePrecision(t *testing.T) {
	// 25 significant digits must survive (float64 keeps only ~16).
	v, err := Parse("1.000000000000000000000001")
	if err != nil {
		t.Fatal(err)
	}
	d := v.Sub(One)
	want := 1e-24
	if math.Abs(d.Float64()-want) > want*1e-6 {
		t.Fatalf("parsed residual = %g, want %g", d.Float64(), want)
	}
}

// ddFrom builds a dd from two random float64s with the renormalization
// invariant re-established, for property tests.
func ddFrom(hi, lo float64) Dd {
	if math.IsNaN(hi) || math.IsInf(hi, 0) {
		hi = 1.0
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) {
		lo = 0.0
	}
	// Keep magnitudes sane to avoid overflow in products.
	hi = math.Mod(hi, 1e100)
	lo = math.Mod(lo, 1e80)
	return FromFloat64(hi).AddFloat(lo * 1e-20)
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a, b := ddFrom(a1, a2), ddFrom(b1, b2)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulCommutative(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a, b := ddFrom(a1, a2), ddFrom(b1, b2)
		return a.Mul(b) == b.Mul(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddNegIsZero(t *testing.T) {
	f := func(a1, a2 float64) bool {
		a := ddFrom(a1, a2)
		return a.Add(a.Neg()).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubSelfIsZero(t *testing.T) {
	f := func(a1, a2 float64) bool {
		a := ddFrom(a1, a2)
		return a.Sub(a).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDivMulRoundTrip(t *testing.T) {
	f := func(a1 float64, b1 float64) bool {
		a := ddFrom(a1, 0)
		b := ddFrom(b1, 0)
		if b.Abs().Float64() < 1e-100 || a.Abs().Float64() > 1e90 {
			return true // skip degenerate magnitudes
		}
		q := a.Div(b)
		r := q.Mul(b)
		diff := r.Sub(a).Abs().Float64()
		tol := math.Abs(a.Float64())*1e-28 + 1e-280
		return diff <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropNonOverlapInvariant(t *testing.T) {
	// After any operation, |Lo| <= ulp(Hi): quickTwoSum invariant.
	f := func(a1, b1 float64) bool {
		a, b := ddFrom(a1, 0), ddFrom(b1, 0)
		for _, v := range []Dd{a.Add(b), a.Mul(b), a.Sub(b)} {
			if v.Hi == 0 {
				continue
			}
			if math.IsInf(v.Hi, 0) || math.IsNaN(v.Hi) {
				continue
			}
			if math.Abs(v.Lo) > math.Abs(v.Hi)*math.Ldexp(1, -52) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAssociativityResidualTiny(t *testing.T) {
	// dd addition is not exactly associative, but the residual must be
	// at the 2^-104 relative level, not float64's 2^-52.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := FromFloat64(rng.NormFloat64())
		b := FromFloat64(rng.NormFloat64() * 1e-10)
		c := FromFloat64(rng.NormFloat64() * 1e10)
		l := a.Add(b).Add(c)
		r := a.Add(b.Add(c))
		diff := l.Sub(r).Abs().Float64()
		scale := math.Abs(c.Float64()) + math.Abs(a.Float64())
		if diff > scale*1e-28 {
			t.Fatalf("associativity residual too large: %g (scale %g)", diff, scale)
		}
	}
}

func BenchmarkDdAdd(b *testing.B) {
	x := FromFloat64(1.2345678901234567)
	y := FromFloat64(7.6543210987654321e-8)
	var r Dd
	for i := 0; i < b.N; i++ {
		r = x.Add(y)
	}
	_ = r
}

func BenchmarkDdMul(b *testing.B) {
	x := FromFloat64(1.2345678901234567)
	y := FromFloat64(1.0000000001)
	var r Dd
	for i := 0; i < b.N; i++ {
		r = x.Mul(y)
	}
	_ = r
}

func BenchmarkDdDiv(b *testing.B) {
	x := FromFloat64(1.2345678901234567)
	y := FromFloat64(3.0000000001)
	var r Dd
	for i := 0; i < b.N; i++ {
		r = x.Div(y)
	}
	_ = r
}

func BenchmarkFloat64AddBaseline(b *testing.B) {
	x, y := 1.2345678901234567, 7.6543210987654321e-8
	var r float64
	for i := 0; i < b.N; i++ {
		r = x + y
	}
	_ = r
}
