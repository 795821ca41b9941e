package physics

import (
	"math"

	"repro/internal/chem"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/nbody"
	"repro/internal/par"
	"repro/internal/units"
)

// DefaultOperators returns the standard operator-split sequence of one
// grid step, the order the paper's driver hard-wired: gravity half-kick,
// hydro sweep set, gravity half-kick (KDK for the fluid), particle
// kick-drift-kick, comoving expansion drag, chemistry & cooling. The same
// GravityKick instance appears twice — each Apply performs one half-kick.
// The level-wide Poisson solve is the driver's LevelOperator and is
// prepended by the hierarchy itself.
func DefaultOperators() []Operator {
	kick := NewGravityKick()
	return []Operator{
		kick,
		NewHydro(),
		kick,
		NewNBody(),
		NewExpansion(),
		NewChemistry(),
	}
}

// HydroOp advances the fluid with one dimensionally-split sweep set of the
// configured solver (PPM or the robust finite-difference scheme).
type HydroOp struct{}

// NewHydro returns the hydrodynamics operator.
func NewHydro() *HydroOp { return &HydroOp{} }

// Name identifies the operator in the per-op timing table.
func (*HydroOp) Name() string { return "hydro" }

// Component bills the operator's wall-clock to the hydro row.
func (*HydroOp) Component() Component { return CompHydro }

// NGhost is the solver's ghost-zone depth.
func (*HydroOp) NGhost() int { return hydro.NGhost }

// Apply runs the sweep set. The worker count inherits the grid's budget
// (which the driver has already divided between concurrently stepping
// grids); an explicitly set Hydro.Workers is still capped by that budget
// so concurrent grids cannot oversubscribe the machine.
func (*HydroOp) Apply(ctx *Context, g *Grid, dt float64) {
	hp := ctx.Hydro
	if budget := par.Workers(ctx.Workers); hp.Workers == 0 || par.Workers(hp.Workers) > budget {
		hp.Workers = budget
	}
	var bc func(*hydro.State)
	if g.Root {
		workers := hp.Workers
		bc = func(s *hydro.State) { mesh.ApplyPeriodicBCs(s.Fields(), workers) }
	}
	hydro.Step3D(g.State, g.Dx, dt, hp, ctx.Solver, g.Parity, bc, g.Reg, g.Taps)
	g.Stats.CellUpdates += int64(g.NumCells())
}

// Timestep returns the CFL limit.
func (*HydroOp) Timestep(ctx *Context, g *Grid) float64 {
	return hydro.Timestep(g.State, g.Dx, ctx.Hydro)
}

// GravityKickOp applies half of the gravitational velocity kick to the
// fluid; registered twice around the hydro operator it realizes the
// kick-drift-kick splitting.
type GravityKickOp struct{}

// NewGravityKick returns the fluid gravity half-kick operator.
func NewGravityKick() *GravityKickOp { return &GravityKickOp{} }

// Name identifies the operator in the per-op timing table.
func (*GravityKickOp) Name() string { return "gravity.kick" }

// Component bills the operator's wall-clock to the gravity row.
func (*GravityKickOp) Component() Component { return CompGravity }

// NGhost is zero: the kick is cell-local.
func (*GravityKickOp) NGhost() int { return 0 }

// Apply kicks the fluid by dt/2 with the level's acceleration field.
func (*GravityKickOp) Apply(ctx *Context, g *Grid, dt float64) {
	if !ctx.SelfGravity || g.GAcc[0] == nil {
		return
	}
	hydro.KickGravity(g.State, g.GAcc[0], g.GAcc[1], g.GAcc[2], dt/2, ctx.Workers)
}

// Timestep is unconstrained: the kick follows the hydro CFL.
func (*GravityKickOp) Timestep(*Context, *Grid) float64 { return math.Inf(1) }

// NBodyOp advances the grid's particles with a kick-drift-kick step using
// the level's acceleration field.
type NBodyOp struct{}

// NewNBody returns the particle push operator.
func NewNBody() *NBodyOp { return &NBodyOp{} }

// Name identifies the operator in the per-op timing table.
func (*NBodyOp) Name() string { return "nbody" }

// Component bills the operator's wall-clock to the N-body row.
func (*NBodyOp) Component() Component { return CompNBody }

// NGhost is one: CIC interpolation reads the neighbor cell.
func (*NBodyOp) NGhost() int { return 1 }

// Apply runs the KDK push.
func (*NBodyOp) Apply(ctx *Context, g *Grid, dt float64) {
	if g.Parts.Len() == 0 {
		return
	}
	kick := ctx.SelfGravity && g.GAcc[0] != nil
	if kick {
		nbody.Kick(g.Parts, g.GAcc[0], g.GAcc[1], g.GAcc[2], g.Geom, dt/2, ctx.Workers)
	}
	g.Parts.Drift(dt, ctx.Workers)
	if kick {
		nbody.Kick(g.Parts, g.GAcc[0], g.GAcc[1], g.GAcc[2], g.Geom, dt/2, ctx.Workers)
	}
	g.Stats.ParticleKicks += int64(g.Parts.Len())
}

// Timestep limits particles to 0.4 cells of travel per step.
func (*NBodyOp) Timestep(ctx *Context, g *Grid) float64 {
	dt := math.Inf(1)
	for i := 0; i < g.Parts.Len(); i++ {
		v := math.Abs(g.Parts.Vx[i]) + math.Abs(g.Parts.Vy[i]) + math.Abs(g.Parts.Vz[i])
		if v > 0 {
			if d := 0.4 * g.Dx / v; d < dt {
				dt = d
			}
		}
	}
	return dt
}

// ExpansionOp applies the comoving expansion drag to gas and particles
// (the only explicit cosmology term in comoving coordinates).
type ExpansionOp struct{}

// NewExpansion returns the expansion-drag operator.
func NewExpansion() *ExpansionOp { return &ExpansionOp{} }

// Name identifies the operator in the per-op timing table.
func (*ExpansionOp) Name() string { return "expansion" }

// Component bills the operator's wall-clock to the overhead row.
func (*ExpansionOp) Component() Component { return CompOther }

// NGhost is zero: the drag is cell-local.
func (*ExpansionOp) NGhost() int { return 0 }

// Apply drags peculiar velocities and internal energy by the current aH.
func (*ExpansionOp) Apply(ctx *Context, g *Grid, dt float64) {
	if ctx.Cosmo == nil {
		return
	}
	aH := ctx.Cosmo.Params.Hubble(ctx.Cosmo.A) * ctx.Units.Time
	hydro.ApplyExpansion(g.State, aH, dt)
	g.Parts.ApplyExpansion(aH, dt)
}

// Timestep limits the expansion-factor change to 2% per step.
func (*ExpansionOp) Timestep(ctx *Context, g *Grid) float64 {
	if ctx.Cosmo == nil {
		return math.Inf(1)
	}
	aH := ctx.Cosmo.Params.Hubble(ctx.Cosmo.A) * ctx.Units.Time
	return 0.02 / aH
}

// ChemistryOp advances the 12-species primordial network and radiative
// cooling in every active cell, sub-cycled inside the hydro step.
type ChemistryOp struct{}

// NewChemistry returns the chemistry & cooling operator.
func NewChemistry() *ChemistryOp { return &ChemistryOp{} }

// Name identifies the operator in the per-op timing table.
func (*ChemistryOp) Name() string { return "chemistry" }

// Component bills the operator's wall-clock to the chemistry row.
func (*ChemistryOp) Component() Component { return CompChemistry }

// NGhost is zero: every cell's network is independent.
func (*ChemistryOp) NGhost() int { return 0 }

// Apply solves the per-cell stiff ODE network. Every cell is independent
// (the dominant per-cell cost of a chemistry run), so the loop
// parallelizes over z-planes with bitwise-identical results at any worker
// count.
//
// Cells are batched one x-row at a time through a chem.Pencil: the gather
// and scatter passes walk each species field as a contiguous slice (one
// species at a time, SoA) with the per-species mass factors and the
// code-unit conversions hoisted out of the cell loop. The hoisted factors
// are the exact subexpressions the per-cell form computed — never a
// reassociated product — so the conversion arithmetic is bitwise identical
// to the old At/Set loop.
func (*ChemistryOp) Apply(ctx *Context, g *Grid, dt float64) {
	if !ctx.Chemistry {
		return
	}
	u := ctx.Units
	dtSec := dt * u.Time
	aFac := 1.0
	cp := ctx.CoolParams
	if ctx.Cosmo != nil && ctx.InitialA > 0 {
		r := ctx.InitialA / ctx.Cosmo.A
		aFac = r * r * r
		cp.Redshift = 1/ctx.Cosmo.A - 1
	}
	st := g.State
	// Per-species weights (electrons stored as n_e * m_p) and their CGS
	// mass factors, plus the code-unit denominators, hoisted once per call.
	var wgt, wm [chem.NumSpecies]float64
	for sp := 0; sp < chem.NumSpecies; sp++ {
		w := chem.AtomicWeight[sp]
		if w == 0 {
			w = 1
		}
		wgt[sp] = w
		wm[sp] = w * units.MProton
	}
	den := u.Density * aFac
	vel2 := u.Velocity * u.Velocity
	nx := g.Nx
	par.For(ctx.Workers, g.Nz, 0, func(_, klo, khi int) {
		pen := chem.NewPencil(nx)
		for k := klo; k < khi; k++ {
			for j := 0; j < g.Ny; j++ {
				// Gather: code-unit species densities -> number
				// densities [cm^-3], one contiguous row per species.
				for sp := 0; sp < chem.NumSpecies; sp++ {
					src := st.Species[sp].Data
					base := st.Species[sp].Idx(0, j, k)
					dst := pen.Species[sp]
					m := wm[sp]
					for i := 0; i < nx; i++ {
						dst[i] = src[base+i] * u.Density * aFac / m
					}
				}
				eintD := st.Eint.Data
				eBase := st.Eint.Idx(0, j, k)
				for i := 0; i < nx; i++ {
					pen.Eint[i] = eintD[eBase+i] * u.Velocity * u.Velocity
				}

				pen.Evolve(dtSec, cp, ctx.ChemParams)

				// Scatter back to code units, again species-at-a-time.
				for sp := 0; sp < chem.NumSpecies; sp++ {
					dst := st.Species[sp].Data
					base := st.Species[sp].Idx(0, j, k)
					src := pen.Species[sp]
					w := wgt[sp]
					for i := 0; i < nx; i++ {
						dst[base+i] = src[i] * w * units.MProton / den
					}
				}
				etotD := st.Etot.Data
				tBase := st.Etot.Idx(0, j, k)
				for i := 0; i < nx; i++ {
					newEint := pen.Eint[i] / vel2
					etotD[tBase+i] += newEint - eintD[eBase+i]
					eintD[eBase+i] = newEint
				}
			}
		}
	})
	g.Stats.ChemCellCalls += int64(g.NumCells())
}

// Timestep is unconstrained: the stiff network sub-cycles internally.
func (*ChemistryOp) Timestep(*Context, *Grid) float64 { return math.Inf(1) }
