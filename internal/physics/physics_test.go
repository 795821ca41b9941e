package physics

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cosmology"
	"repro/internal/ep128"
	"repro/internal/hydro"
	"repro/internal/nbody"
	"repro/internal/units"
)

func ep(x float64) ep128.Dd { return ep128.FromFloat64(x) }

func TestDefaultOperatorsOrder(t *testing.T) {
	ops := DefaultOperators()
	want := []string{"gravity.kick", "hydro", "gravity.kick", "nbody", "expansion", "chemistry"}
	got := make([]string, len(ops))
	for i, op := range ops {
		got[i] = op.Name()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("operator order %v, want %v", got, want)
	}
	// The two half-kicks are the same instance (one kick of dt/2 each).
	if ops[0] != ops[2] {
		t.Error("gravity half-kicks should share one operator instance")
	}
}

func TestPipelineMaxNGhost(t *testing.T) {
	p := Pipeline(DefaultOperators())
	if p.MaxNGhost() != hydro.NGhost {
		t.Fatalf("MaxNGhost %d, want %d (the PPM stencil)", p.MaxNGhost(), hydro.NGhost)
	}
}

type nopOp struct {
	name  string
	ng    int
	dtCap float64
}

func (o nopOp) Name() string                     { return o.name }
func (nopOp) Component() Component               { return CompOther }
func (o nopOp) NGhost() int                      { return o.ng }
func (nopOp) Apply(*Context, *Grid, float64)     {}
func (o nopOp) Timestep(*Context, *Grid) float64 { return o.dtCap }

// TestPipelineEditing edits a pipeline as a plain slice and checks that
// the two driver hooks see the spliced operators.
func TestPipelineEditing(t *testing.T) {
	p := Pipeline(DefaultOperators())
	p = slices.Insert(p, len(p)-1, Operator(nopOp{name: "custom", ng: 1, dtCap: 0.25}))
	p = append(p, nopOp{name: "tail", ng: hydro.NGhost + 1, dtCap: math.Inf(1)})
	if p[len(p)-3].Name() != "custom" || p[len(p)-2].Name() != "chemistry" || p[len(p)-1].Name() != "tail" {
		t.Fatalf("spliced order wrong: %v", p)
	}
	if p.MaxNGhost() != hydro.NGhost+1 {
		t.Fatalf("MaxNGhost %d, want %d", p.MaxNGhost(), hydro.NGhost+1)
	}
	if dt := p[len(p)-3:].Timestep(&Context{}, nil); dt != 0.25 {
		t.Fatalf("Timestep %v, want the custom cap 0.25", dt)
	}
}

// newTestGrid builds a small uniform fluid state with a velocity gradient.
func newTestGrid(n int) *Grid {
	s := hydro.NewState(n, n, n, 0)
	for k := -hydro.NGhost; k < n+hydro.NGhost; k++ {
		for j := -hydro.NGhost; j < n+hydro.NGhost; j++ {
			for i := -hydro.NGhost; i < n+hydro.NGhost; i++ {
				s.Rho.Set(i, j, k, 1+0.1*float64((i+j+k+3*n)%5))
				s.Vx.Set(i, j, k, 0.05*float64(i%3))
				s.Eint.Set(i, j, k, 1)
				s.Etot.Set(i, j, k, 1+0.5*s.Vx.At(i, j, k)*s.Vx.At(i, j, k))
			}
		}
	}
	var st OpStats
	return &Grid{
		State: s, Dx: 1.0 / float64(n), Nx: n, Ny: n, Nz: n,
		Root: true, Parts: nbody.New(0), Stats: &st,
	}
}

func TestHydroOpMatchesDirectCall(t *testing.T) {
	// The operator is a pure relocation of the driver's inline call:
	// results must be bitwise identical to driving hydro.Step3D directly.
	ctx := &Context{Params: Params{Hydro: hydro.DefaultParams(), Solver: hydro.SolverPPM}, Workers: 1}
	g := newTestGrid(8)
	ref := g.State.Clone()

	const dt = 1e-3
	NewHydro().Apply(ctx, g, dt)

	bc := func(s *hydro.State) {
		for _, f := range s.Fields() {
			f.ApplyPeriodicBC()
		}
	}
	hp := ctx.Hydro
	hp.Workers = 1
	hydro.Step3D(ref, g.Dx, dt, hp, hydro.SolverPPM, 0, bc, nil, nil)

	for idx := range ref.Rho.Data {
		if ref.Rho.Data[idx] != g.State.Rho.Data[idx] {
			t.Fatalf("hydro operator diverged from direct call at %d", idx)
		}
	}
	if g.Stats.CellUpdates != int64(8*8*8) {
		t.Errorf("CellUpdates %d", g.Stats.CellUpdates)
	}
}

func TestTimestepHooks(t *testing.T) {
	ctx := &Context{Params: Params{Hydro: hydro.DefaultParams()}}
	g := newTestGrid(8)

	if got, want := NewHydro().Timestep(ctx, g), hydro.Timestep(g.State, g.Dx, ctx.Hydro); got != want {
		t.Errorf("hydro timestep %v, want %v", got, want)
	}
	if !math.IsInf(NewChemistry().Timestep(ctx, g), 1) {
		t.Error("chemistry must not constrain dt")
	}
	if !math.IsInf(NewExpansion().Timestep(ctx, g), 1) {
		t.Error("expansion without cosmology must not constrain dt")
	}

	// Particle-crossing limit: 0.4 dx / |v|_1.
	g.Parts.Add(ep(0.5), ep(0.5), ep(0.5), 0.3, 0.4, 0, 1, 0)
	if got, want := NewNBody().Timestep(ctx, g), 0.4*g.Dx/0.7; got != want {
		t.Errorf("nbody timestep %v, want %v", got, want)
	}

	// Expansion limit: 2% of the e-folding time.
	bg := cosmology.NewBackground(cosmology.StandardCDM(), 0.1)
	u := units.Cosmological(units.MpcCM, 1, 0.5, 0.1)
	ctx.Cosmo, ctx.Units = bg, u
	want := 0.02 / (bg.Params.Hubble(bg.A) * u.Time)
	if got := NewExpansion().Timestep(ctx, g); got != want {
		t.Errorf("expansion timestep %v, want %v", got, want)
	}
}

func TestGuardedOperatorsNoOp(t *testing.T) {
	// Every operator must be inert when its physics is off, so a single
	// pipeline can serve all registered problems.
	ctx := &Context{Params: Params{Hydro: hydro.DefaultParams()}, Workers: 1}
	g := newTestGrid(6)
	before := append([]float64(nil), g.State.Rho.Data...)
	beforeVx := append([]float64(nil), g.State.Vx.Data...)

	NewGravityKick().Apply(ctx, g, 0.1) // no gravity: GAcc nil
	NewExpansion().Apply(ctx, g, 0.1)   // no cosmology
	NewChemistry().Apply(ctx, g, 0.1)   // chemistry off
	NewNBody().Apply(ctx, g, 0.1)       // no particles

	for idx := range before {
		if g.State.Rho.Data[idx] != before[idx] || g.State.Vx.Data[idx] != beforeVx[idx] {
			t.Fatal("guarded operator mutated state")
		}
	}
	if g.Stats.ChemCellCalls != 0 || g.Stats.ParticleKicks != 0 {
		t.Error("inert operators must not report work")
	}
}
