package problems

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestParseKnob(t *testing.T) {
	cases := []struct {
		in      string
		key     string
		val     float64
		wantErr bool
	}{
		{"e0=10", "e0", 10, false},
		{"delta=4.5e-3", "delta", 4.5e-3, false},
		{"tinit=-800", "tinit", -800, false},
		{"noequals", "", 0, true},
		{"=5", "", 0, true},
		{"e0=", "", 0, true},
		{"e0=abc", "", 0, true},
		{"e0=NaN", "", 0, true},
		{"e0=+Inf", "", 0, true},
		{"a=b=c", "", 0, true}, // "b=c" is not a float
		{"a b=1", "", 0, true}, // space in key
		{"a;b=1", "", 0, true}, // canonical separator in key
		{"k{=1", "", 0, true},
	}
	for _, tc := range cases {
		k, v, err := ParseKnob(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseKnob(%q) = %q,%v, want error", tc.in, k, v)
			}
			continue
		}
		if err != nil || k != tc.key || v != tc.val {
			t.Errorf("ParseKnob(%q) = %q,%v,%v want %q,%v", tc.in, k, v, err, tc.key, tc.val)
		}
	}
}

func TestCanonicalKnobsRoundTripAndOrder(t *testing.T) {
	m := map[string]float64{"zeta": 1e-300, "alpha": 3.14159265358979, "mid": math.Copysign(0, -1)}
	s := CanonicalKnobs(m)
	if s != "{alpha=3.14159265358979;mid=-0;zeta=1e-300}" {
		t.Fatalf("canonical form %q not sorted/shortest", s)
	}
	back, err := ParseCanonicalKnobs(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(m) {
		t.Fatalf("round trip lost keys: %v", back)
	}
	for k, v := range m {
		if bits(back[k]) != bits(v) {
			t.Fatalf("knob %q: %v -> %v", k, v, back[k])
		}
	}
	if CanonicalKnobs(nil) != "{}" {
		t.Fatal("nil map must canonicalize to {}")
	}
	if _, err := ParseCanonicalKnobs("{a=1;a=2}"); err == nil {
		t.Fatal("duplicate keys must be rejected")
	}
	if _, err := ParseCanonicalKnobs("a=1"); err == nil {
		t.Fatal("missing braces must be rejected")
	}
}

func bits(v float64) uint64 { return math.Float64bits(v) }

// TestOptsCanonicalDiscriminates: every physics field must participate in
// the canonical identity, and the worker budget must not.
func TestOptsCanonicalDiscriminates(t *testing.T) {
	base := Opts{RootN: 16, MaxLevel: 2, Chemistry: true, Workers: 2, Seed: 7, Solver: "ppm",
		Extra: map[string]float64{"e0": 10}}
	mutations := []func(*Opts){
		func(o *Opts) { o.RootN = 32 },
		func(o *Opts) { o.MaxLevel = 3 },
		func(o *Opts) { o.Chemistry = false },
		func(o *Opts) { o.Seed = 8 },
		func(o *Opts) { o.Solver = "fd" },
		func(o *Opts) { o.Extra = map[string]float64{"e0": 11} },
	}
	// Resource choices: the bits do not depend on them.
	invariants := []func(*Opts){
		func(o *Opts) { o.Workers = 4 },
		func(o *Opts) { o.Workers = 0 },
	}
	ref := base.Canonical()
	for i, mut := range append(mutations, invariants...) {
		o := base
		o.Extra = map[string]float64{"e0": 10}
		mut(&o)
		if changed := o.Canonical() != ref; changed != (i < len(mutations)) {
			t.Errorf("mutation %d: canonical form changed=%v, want %v (%q)", i, changed, i < len(mutations), ref)
		}
	}
}

// FuzzParseKnobs fuzzes the full -p pipeline: parsing never panics, and
// every accepted knob survives the parse → canonicalize → parse round
// trip bit-for-bit (the property the sim job cache keys depend on).
func FuzzParseKnobs(f *testing.F) {
	for _, seed := range []string{
		"e0=10", "delta=4.5e-3", "a=-0", "k=1e308", "x=0x1p-52",
		"", "=", "a=b=c", "noequals", "key=NaN", "key=Inf",
		"spaced key=1", "semi;colon=2", "{brace=3", "a=9007199254740993",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		key, val, err := ParseKnob(s)
		if err != nil {
			return // malformed input rejected cleanly: that's the contract
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			t.Fatalf("ParseKnob(%q) accepted non-finite %v", s, val)
		}
		canon := CanonicalKnobs(map[string]float64{key: val})
		back, err := ParseCanonicalKnobs(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted knob %q does not re-parse: %v", canon, s, err)
		}
		v2, ok := back[key]
		if !ok || bits(v2) != bits(val) {
			t.Fatalf("round trip %q -> %q -> %v lost the value %v", s, canon, back, val)
		}
		// Canonicalization is idempotent.
		if again := CanonicalKnobs(back); again != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, again)
		}
	})
}

// TestSpecsSortedDeterministic pins the registry iteration order shared
// by enzogo -list, the CI problems matrix and the golden table: sorted by
// name, identical across calls.
func TestSpecsSortedDeterministic(t *testing.T) {
	specs := Specs()
	if len(specs) == 0 {
		t.Fatal("no registered problems")
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Specs() not sorted: %v", names)
	}
	if got := strings.Join(Names(), ","); got != strings.Join(names, ",") {
		t.Fatalf("Specs() order %v disagrees with Names() %v", names, Names())
	}
	again := Specs()
	for i := range again {
		if again[i].Name != specs[i].Name {
			t.Fatalf("Specs() order changed between calls at %d", i)
		}
	}
}
