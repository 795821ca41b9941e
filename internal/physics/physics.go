// Package physics decouples the science solvers from the AMR driver: each
// physics component (hydrodynamics, gravity kicks, the N-body push, the
// comoving expansion drag, the 12-species chemistry network) is an
// operator-split Operator that runs unchanged on any grid of the
// hierarchy — the paper's architecture thesis that AMR becomes a
// general-purpose engine when "off-the-shelf" solvers see only one
// uniform patch at a time.
//
// The driver (internal/amr) executes a Pipeline — a plain []Operator —
// per grid per level-step instead of hard-wiring solver calls. An
// Operator declares its name, the Timing component it bills to, its
// ghost-zone (stencil) needs, a per-grid Apply, and a timestep-constraint
// hook; operators whose work is intrinsically level-wide (the Poisson
// solve, which couples every grid of a level through boundary exchange)
// additionally implement LevelOperator and are invoked once before the
// per-grid sweep.
//
// New physics plugs in without touching the driver: implement Operator and
// append it to (or slices.Insert it into) the hierarchy's Physics slice
// (see the package example in the repository root doc.go).
package physics

import (
	"math"

	"repro/internal/chem"
	"repro/internal/cosmology"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/nbody"
	"repro/internal/units"
)

// Component names the row of the amr.Timing table an operator bills its
// wall-clock time to.
type Component int

// The usage-table rows of §5: hydrodynamics, Poisson solver, chemistry &
// cooling, N-body, and everything else.
const (
	CompHydro Component = iota
	CompGravity
	CompChemistry
	CompNBody
	CompOther
)

// Params is the physics configuration of a run that operators read: the
// hydro scheme, the gravity and chemistry switches with their parameters,
// the unit system and the cosmology. amr.Config embeds it, so a run's
// config says it once.
type Params struct {
	Hydro  hydro.Params
	Solver hydro.Solver

	SelfGravity bool

	Chemistry  bool
	ChemParams chem.SolverParams
	CoolParams chem.CoolParams

	// Cosmology: if set, the expansion factor is advanced alongside the
	// simulation and comoving source terms are applied.
	Cosmo    *cosmology.Background
	InitialA float64
	Units    units.Units
}

// Context is the run-wide environment an operator sees: the physics
// configuration of the run plus the worker budget the driver has assigned
// to the grid being stepped. It is rebuilt (cheaply, by value) for every
// grid step, so operators must not retain it.
type Context struct {
	Params

	// Workers is the goroutine budget for this grid's kernels (par
	// conventions: 0 = NumCPU, 1 = serial). When several grids of a
	// level step concurrently the driver has already divided the global
	// budget between them.
	Workers int
}

// Grid is the per-grid view an operator acts on: the fluid state, the
// particles owned by the grid, the gravitational acceleration fields of
// the enclosing level solve, and the flux bookkeeping hooks of the AMR
// coupling. Operators see only this view, never the hierarchy.
type Grid struct {
	State      *hydro.State
	Dx         float64
	Nx, Ny, Nz int
	Level      int
	Root       bool // the periodic root grid (boundary handling differs)

	GAcc  [3]*mesh.Field3 // gravitational acceleration (nil until a solve)
	Parts *nbody.Particles
	Geom  nbody.GridGeom

	Reg  *hydro.FluxRegister // fluxes at this grid's own boundary
	Taps []*hydro.FluxTap    // interior fluxes at this grid's children's faces

	Parity int // Strang sweep parity of the driver

	// Stats receives the operator work counters for this grid step.
	Stats *OpStats
}

// NumCells returns the active cell count of the view.
func (g *Grid) NumCells() int { return g.Nx * g.Ny * g.Nz }

// OpStats accumulates the per-grid work counters operators report, merged
// by the driver into amr.Stats.
type OpStats struct {
	CellUpdates   int64
	ChemCellCalls int64
	ParticleKicks int64
}

// Operator is one operator-split physics component. Apply advances the
// grid view by dt; it must guard itself against configurations where it
// does not apply (e.g. the expansion drag when the run is not
// cosmological) so that a single pipeline serves every problem.
//
// Concurrency: the driver steps the grids of a level in parallel, calling
// Apply on the SAME operator instance from multiple goroutines (one per
// grid). Operators must therefore be stateless with respect to Apply —
// keep per-call state on the stack and report work through Grid.Stats
// (which is private to the grid step); an operator that accumulates into
// its own fields must synchronize them itself.
type Operator interface {
	// Name identifies the operator (unique within a pipeline except for
	// deliberately repeated entries such as the two gravity half-kicks).
	Name() string
	// Component is the Timing-table row the operator bills to.
	Component() Component
	// NGhost is the ghost-zone depth the operator's stencil requires.
	NGhost() int
	// Apply advances the grid by dt.
	Apply(ctx *Context, g *Grid, dt float64)
	// Timestep returns the operator's stability limit on the grid, or
	// +Inf when it imposes none.
	Timestep(ctx *Context, g *Grid) float64
}

// LevelOperator marks an Operator whose work happens once per level step
// (before the per-grid Apply sweep) rather than independently per grid;
// the driver skips its Apply during the per-grid sweep. The canonical
// example is the self-gravity Poisson solve, which couples all grids of
// a level through sibling boundary exchange; the driver implements it
// and registers it through this interface.
type LevelOperator interface {
	Operator
	// ApplyLevel runs the level-wide stage. The driver calls it with its
	// own level index before stepping the level's grids.
	ApplyLevel(level int, dt float64)
}

// Pipeline is the ordered list of operators executed per grid per
// level-step. Edit it as a slice (append, slices.Insert).
type Pipeline []Operator

// MaxNGhost returns the widest ghost-zone requirement of the pipeline,
// which the driver's grid allocation must satisfy.
func (p Pipeline) MaxNGhost() int {
	ng := 0
	for _, op := range p {
		if g := op.NGhost(); g > ng {
			ng = g
		}
	}
	return ng
}

// Timestep returns the most restrictive operator stability limit on the
// grid (+Inf when no operator constrains it).
func (p Pipeline) Timestep(ctx *Context, g *Grid) float64 {
	dt := math.Inf(1)
	for _, op := range p {
		if d := op.Timestep(ctx, g); d < dt {
			dt = d
		}
	}
	return dt
}
