package problems

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/amr"
	"repro/internal/hydro"
)

// Opts are the common knobs every registered problem understands; a
// problem's Spec carries its own defaults, and builders ignore knobs that
// do not apply to them. Fields map one-to-one onto the enzogo CLI flags.
type Opts struct {
	RootN     int    // root grid cells per side (power of two)
	MaxLevel  int    // deepest refinement level
	Chemistry bool   // enable the 12-species network where supported
	Workers   int    // par worker budget (0 = NumCPU)
	Seed      int64  // IC random seed (zoom)
	Solver    string // "" = problem default, "ppm" or "fd"
	// Extra holds problem-specific numeric knobs (CLI: repeated
	// -p key=value flags), each declared in its Spec's Knobs.
	Extra map[string]float64
}

// Knob declares one problem-specific numeric knob: what it sets, and the
// value a build uses when Opts.Extra leaves it unset.
type Knob struct {
	Doc     string
	Default float64
}

// String renders the knob's catalog line, "doc (default d)", as
// `enzogo -list -long` and GET /problems show it.
func (k Knob) String() string { return fmt.Sprintf("%s (default %g)", k.Doc, k.Default) }

// Spec declares one runnable problem: a short description for the
// catalog, its defaults and knobs, and the builder itself.
type Spec struct {
	Name string
	// Summary is the one-line catalog description (`enzogo -list`).
	Summary string
	// Exercises names the subsystems the problem stresses (README
	// catalog column).
	Exercises string
	// Example is a representative command line.
	Example string
	// Defaults fills an Opts with this problem's canonical
	// configuration; CLI flags override individual fields. A knob in
	// its Extra is part of every default job's identity; its value must
	// equal the knob's Default.
	Defaults Opts
	// Knobs declares the problem-specific Extra keys the builder reads,
	// each with its default. BuildSpec rejects Extra keys not declared
	// here, so a misspelled -p knob fails instead of silently running
	// the default physics.
	Knobs map[string]Knob
	// Build constructs the initialized hierarchy. BuildSpec hands it an
	// Extra that holds every declared knob.
	Build func(Opts) (*amr.Hierarchy, error)
}

// CheckKnobs rejects a key of extra that the spec does not declare,
// naming the least such key. It allocates nothing when every key is
// declared: a job service resolves every submission, cache hits included.
func (s Spec) CheckKnobs(extra map[string]float64) error {
	var unknown []string
	for k := range extra {
		if _, known := s.Knobs[k]; !known {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	return fmt.Errorf("problems: %q has no knob %q (available: %v)",
		s.Name, slices.Min(unknown), slices.Sorted(maps.Keys(s.Knobs)))
}

var (
	regMu    sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a problem to the registry. It panics on a duplicate or
// anonymous spec — registration is a program-initialization act, not a
// runtime one.
func Register(s Spec) {
	if s.Name == "" || s.Build == nil {
		panic("problems: Register needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("problems: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the spec registered under name.
func Get(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered problem names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Specs returns the registered specs sorted by name — the one iteration
// order shared by `enzogo -list`, the CI problems matrix it drives, the
// golden regression table and any other registry walk, so their rows line
// up run after run.
func Specs() []Spec {
	names := Names()
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, _ := Get(n)
		out = append(out, s)
	}
	return out
}

// Build constructs the named problem with the given options. The common
// fields are used verbatim — they are not merged with the spec's
// Defaults, so a zero field means zero (e.g. MaxLevel 0 disables
// refinement); only an unset knob falls back, to its declared Default.
// Callers wanting the canonical configuration start from
// Get(name).Defaults and override fields, which is what core.New does.
func Build(name string, o Opts) (*amr.Hierarchy, error) {
	spec, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("problems: unknown problem %q (have %v)", name, Names())
	}
	return BuildSpec(spec, o)
}

// BuildSpec checks o's knobs against the spec and runs its builder on a
// copy of Extra with every unset knob at its Default, then applies the
// cross-cutting knobs (worker budget, solver choice) that every hierarchy
// honors. The caller's Extra is never written, so o.Canonical() stays the
// configuration that was asked for. See Build.
func BuildSpec(spec Spec, o Opts) (*amr.Hierarchy, error) {
	if err := spec.CheckKnobs(o.Extra); err != nil {
		return nil, err
	}
	extra := make(map[string]float64, len(spec.Knobs))
	for k, knob := range spec.Knobs {
		extra[k] = knob.Default
	}
	maps.Copy(extra, o.Extra)
	o.Extra = extra
	h, err := spec.Build(o)
	if err != nil {
		return nil, err
	}
	if o.Workers != 0 {
		h.Cfg.Workers = o.Workers
	}
	if o.Solver != "" {
		s, err := ParseSolver(o.Solver)
		if err != nil {
			return nil, err
		}
		h.Cfg.Solver = s
	}
	return h, nil
}

// ParseSolver maps the CLI solver names onto hydro.Solver.
func ParseSolver(name string) (hydro.Solver, error) {
	switch name {
	case "ppm":
		return hydro.SolverPPM, nil
	case "fd":
		return hydro.SolverFD, nil
	default:
		return 0, fmt.Errorf("problems: unknown solver %q (want ppm or fd)", name)
	}
}

func init() {
	Register(Spec{
		Name:      "sedov",
		Summary:   "Sedov-Taylor point explosion in a cold uniform medium",
		Exercises: "hydro solvers, shock-driven dynamic refinement, flux correction",
		Example:   "enzogo -problem sedov -steps 20 -rootn 32 -maxlevel 2",
		// e0 is spelled out in the defaults only because every sedov job
		// ID already includes it.
		Defaults: Opts{RootN: 16, MaxLevel: 4, Extra: map[string]float64{"e0": 10}},
		Knobs:    map[string]Knob{"e0": {"deposited blast energy", 10}},
		Build:    sedov,
	})
	Register(Spec{
		Name:      "pancake",
		Summary:   "Zel'dovich pancake: one plane wave collapsing in an expanding background",
		Exercises: "cosmology coupling, self-gravity, N-body + hydro, comoving units",
		Example:   "enzogo -problem pancake -steps 30 -rootn 32",
		Defaults:  Opts{RootN: 32, MaxLevel: 2},
		Knobs: map[string]Knob{
			"astart":    {"starting expansion factor", 0.05},
			"acollapse": {"expansion factor of caustic formation", 0.2},
		},
		Build: pancake,
	})
	Register(Spec{
		Name:      "collapse",
		Summary:   "primordial star formation: cooling clump collapse with 12-species chemistry",
		Exercises: "the full stack: AMR + gravity + chemistry + N-body at laptop scale",
		Example:   "enzogo -problem collapse -steps 40 -rootn 16 -maxlevel 5",
		Defaults:  Opts{RootN: 16, MaxLevel: 5, Chemistry: true},
		Knobs: map[string]Knob{
			"delta":    {"central clump overdensity", 40},
			"tinit":    {"initial gas temperature [K]", 800},
			"redshift": {"epoch of the run", 19},
			"boxkpc":   {"comoving box side [kpc]", 160},
		},
		Build: primordialCollapse,
	})
	Register(Spec{
		Name:      "zoom",
		Summary:   "nested zoom-in cosmological ICs from the CDM power spectrum (paper §4)",
		Exercises: "IC generation, static refined levels, restart workflow",
		Example:   "enzogo -problem zoom -steps 10 -rootn 16 -seed 12345",
		Defaults:  Opts{RootN: 16, MaxLevel: 4, Chemistry: true, Seed: 12345},
		Knobs: map[string]Knob{
			"staticlevels": {"nested static refined levels", 2},
			"redshift":     {"starting redshift", 99},
		},
		Build: func(o Opts) (*amr.Hierarchy, error) {
			h, _, err := cosmologicalZoom(o)
			return h, err
		},
	})
	Register(Spec{
		Name:      "khi",
		Summary:   "Kelvin-Helmholtz instability: shear layer rolling up in a periodic box",
		Exercises: "contact discontinuities, advection accuracy, refinement on density",
		Example:   "enzogo -problem khi -steps 30 -rootn 32 -maxlevel 1",
		Defaults:  Opts{RootN: 32, MaxLevel: 1},
		Build:     kelvinHelmholtz,
	})
	Register(Spec{
		Name:      "coolsphere",
		Summary:   "isolated cooling-collapse sphere: non-cosmological chemistry-driven infall",
		Exercises: "chemistry & cooling without cosmology, Jeans refinement, gravity",
		Example:   "enzogo -problem coolsphere -steps 20 -rootn 16 -maxlevel 3",
		Defaults:  Opts{RootN: 16, MaxLevel: 3, Chemistry: true},
		Knobs: map[string]Knob{
			"delta":   {"central sphere overdensity", 20},
			"tinit":   {"initial gas temperature [K]", 1000},
			"boxpc":   {"box side [pc]", 10},
			"rhounit": {"code density unit [g/cm^3]", 1e-22},
		},
		Build: coolingSphere,
	})
	Register(Spec{
		Name:      "sod",
		Summary:   "double Sod shock tube: mirrored Riemann problems in the periodic box",
		Exercises: "solver validation against the exact Riemann solution (ppm vs fd)",
		Example:   "enzogo -problem sod -steps 20 -rootn 64 -maxlevel 1",
		// The -solver choice is applied by BuildSpec.
		Defaults: Opts{RootN: 64, MaxLevel: 1, Solver: "ppm"},
		Build:    sodTube,
	})
}
