package problems

import (
	"math"
	"testing"

	"repro/internal/amr"
)

func TestRegistryNamesAndLookup(t *testing.T) {
	names := Names()
	for _, want := range []string{"sedov", "pancake", "collapse", "zoom", "khi", "coolsphere", "sod"} {
		if _, ok := Get(want); !ok {
			t.Errorf("problem %q not registered (have %v)", want, names)
		}
	}
	if _, err := Build("nosuch", Opts{}); err == nil {
		t.Error("unknown problem must error")
	}
	if _, err := Build("sod", Opts{RootN: 8, Solver: "weno"}); err == nil {
		t.Error("unknown solver must error")
	}
}

func TestUnknownKnobRejected(t *testing.T) {
	// A misspelled -p key must fail loudly instead of silently running
	// the default physics.
	_, err := Build("sedov", Opts{RootN: 8, MaxLevel: 1, Extra: map[string]float64{"eo": 50}})
	if want := `problems: "sedov" has no knob "eo" (available: [e0])`; err == nil || err.Error() != want {
		t.Errorf("misspelled knob: got %v, want %s", err, want)
	}
	if _, err := Build("khi", Opts{RootN: 8, MaxLevel: 1, Extra: map[string]float64{"delta": 40}}); err == nil {
		t.Error("knob of a different problem must error")
	}
	if _, err := Build("sedov", Opts{RootN: 8, MaxLevel: 1, Extra: map[string]float64{"e0": 50}}); err != nil {
		t.Errorf("documented knob rejected: %v", err)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(Spec{Name: "sedov", Build: func(Opts) (*amr.Hierarchy, error) { return nil, nil }})
}

// smokeOpts shrinks a spec's defaults to a 2-step smoke size.
func smokeOpts(spec Spec) Opts {
	o := spec.Defaults
	o.RootN = 8
	if o.MaxLevel > 2 {
		o.MaxLevel = 2
	}
	return o
}

// TestRegistrySmoke runs every registered problem for two root steps and
// checks the cross-problem invariants: the hierarchy is non-empty, every
// field of every grid stays finite, and gas mass is conserved.
func TestRegistrySmoke(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		t.Run(name, func(t *testing.T) {
			h, err := Build(name, smokeOpts(spec))
			if err != nil {
				t.Fatal(err)
			}
			if h.NumGrids() < 1 || len(h.Levels[0]) != 1 {
				t.Fatalf("empty hierarchy: %d grids", h.NumGrids())
			}
			mass0 := h.TotalGasMass()
			if mass0 <= 0 {
				t.Fatalf("no gas: mass %v", mass0)
			}
			for s := 0; s < 2; s++ {
				if dt := h.Step(); dt <= 0 || math.IsNaN(dt) {
					t.Fatalf("bad dt %v at step %d", dt, s)
				}
			}
			for l, lv := range h.Levels {
				for gi, g := range lv {
					for fi, f := range g.State.Fields() {
						for _, v := range f.Data {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("non-finite value in field %d of L%d grid %d", fi, l, gi)
							}
						}
					}
				}
			}
			mass1 := h.TotalGasMass()
			if rel := math.Abs(mass1-mass0) / mass0; rel > 1e-3 {
				t.Errorf("gas mass drifted %.2e (%v -> %v)", rel, mass0, mass1)
			}
		})
	}
}

// TestDeclaredDefaultsAreTheBuild holds each knob's declared Default to
// the value a build uses: leaving every knob unset and spelling every
// knob out at its Default must build the same hierarchy, bit for bit. A
// knob a spec keeps in Defaults.Extra (it is part of the default job ID)
// must be declared, at the same value.
func TestDeclaredDefaultsAreTheBuild(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			for k, v := range spec.Defaults.Extra {
				if knob, ok := spec.Knobs[k]; !ok || knob.Default != v {
					t.Errorf("Defaults.Extra[%q] = %v, declared knob %+v (declared %v)", k, v, knob, ok)
				}
			}
			unset := smokeOpts(spec)
			unset.Extra = nil
			spelled := unset
			spelled.Extra = map[string]float64{}
			for k, knob := range spec.Knobs {
				spelled.Extra[k] = knob.Default
			}
			a, err := BuildSpec(spec, unset)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildSpec(spec, spelled)
			if err != nil {
				t.Fatal(err)
			}
			if a.ChecksumHex() != b.ChecksumHex() {
				t.Fatalf("unset knobs build %s, knobs at their declared defaults build %s",
					a.ChecksumHex(), b.ChecksumHex())
			}
		})
	}
}

// TestBuildSpecLeavesOptsAlone: the defaults BuildSpec fills in reach only
// the builder, never the caller's map — Opts.Canonical, and so every job
// ID, is what was asked for.
func TestBuildSpecLeavesOptsAlone(t *testing.T) {
	spec, _ := Get("collapse")
	o := smokeOpts(spec)
	o.Extra = map[string]float64{"delta": 60}
	before := o.Canonical()
	if _, err := BuildSpec(spec, o); err != nil {
		t.Fatal(err)
	}
	if after := o.Canonical(); after != before || len(o.Extra) != 1 {
		t.Fatalf("BuildSpec changed the request: %s -> %s", before, after)
	}
}

func TestKnobString(t *testing.T) {
	for knob, want := range map[Knob]string{
		{"deposited blast energy", 10}:        "deposited blast energy (default 10)",
		{"code density unit [g/cm^3]", 1e-22}: "code density unit [g/cm^3] (default 1e-22)",
		{"starting expansion factor", 0.05}:   "starting expansion factor (default 0.05)",
	} {
		if got := knob.String(); got != want {
			t.Errorf("Knob.String() = %q, want %q", got, want)
		}
	}
}
