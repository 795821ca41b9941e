// Package amr implements the structured adaptive mesh refinement engine of
// the paper (§3): the grid hierarchy with integer refinement factor and
// strict parent containment, the recursive EvolveLevel W-cycle, two-way
// coarse/fine coupling (boundary interpolation down, flux correction and
// projection up), refinement criteria (baryon mass, dark-matter mass,
// Jeans length), and hierarchy rebuilding via Berger–Rigoutsos clustering.
//
// Grid corner positions and times are held in 128-bit extended precision
// (§3.5): at deep refinement the corner of a level-30 grid differs from its
// neighbour's by ~1e-11 of the box, beyond float64's resolving power over
// absolute coordinates. All intra-grid arithmetic is relative float64.
package amr

import (
	"fmt"

	"repro/internal/ep128"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/nbody"
)

// Grid is one rectangular patch of the hierarchy: the paper's fundamental
// object ("a grid represents the basic building block of AMR", §3.4).
type Grid struct {
	Level int
	// Lo is the global index of the grid's first active cell in the
	// level's index space (box spans RootN * r^Level cells per side).
	Lo [3]int
	// Nx, Ny, Nz are the active cell counts.
	Nx, Ny, Nz int
	// Edge is the absolute position of the low corner in box units,
	// held in extended precision.
	Edge [3]ep128.Dd
	// Dx is the cell width in box units at this level.
	Dx float64

	State *hydro.State
	Phi   *mesh.Field3 // gravitational potential
	GAcc  [3]*mesh.Field3
	DMRho *mesh.Field3 // dark-matter density deposited for the gravity solve

	Parts *nbody.Particles // particles owned by this grid (finest containing grid)

	Reg  *hydro.FluxRegister // boundary fluxes for the parent's correction
	Taps []*hydro.FluxTap    // interior fluxes at this grid's children's faces

	Parent   *Grid
	Children []*Grid

	Time float64 // current time of this grid's solution
}

// NewGrid allocates a grid with fields for nspecies advected species.
// rootN is the root grid size and refine the refinement factor, used to
// derive Dx and Edge from Lo and Level.
func NewGrid(level int, lo [3]int, nx, ny, nz, rootN, refine, nspecies int) *Grid {
	g := &Grid{
		Level: level,
		Lo:    lo,
		Nx:    nx, Ny: ny, Nz: nz,
	}
	cells := rootN
	for l := 0; l < level; l++ {
		cells *= refine
	}
	g.Dx = 1.0 / float64(cells)
	for d := 0; d < 3; d++ {
		// Edge = Lo / cells, computed in extended precision.
		g.Edge[d] = ep128.FromInt(int64(lo[d])).DivFloat(float64(cells))
	}
	g.State = hydro.NewState(nx, ny, nz, nspecies)
	g.Phi = mesh.NewField3(nx, ny, nz, hydro.NGhost)
	g.DMRho = mesh.NewField3(nx, ny, nz, hydro.NGhost)
	g.Reg = hydro.NewFluxRegister(nx, ny, nz, nspecies)
	g.Parts = nbody.New(0)
	return g
}

// NumCells returns the active cell count.
func (g *Grid) NumCells() int { return g.Nx * g.Ny * g.Nz }

// Hi returns the exclusive global high index at this grid's level.
func (g *Grid) Hi() [3]int {
	return [3]int{g.Lo[0] + g.Nx, g.Lo[1] + g.Ny, g.Lo[2] + g.Nz}
}

// ContainsGlobal reports whether the global fine-level cell (i,j,k) at this
// grid's level lies within the grid's active region.
func (g *Grid) ContainsGlobal(i, j, k int) bool {
	hi := g.Hi()
	return i >= g.Lo[0] && i < hi[0] && j >= g.Lo[1] && j < hi[1] && k >= g.Lo[2] && k < hi[2]
}

// Geom returns the grid's particle-mesh geometry (extended-precision
// origin + cell width).
func (g *Grid) Geom() nbody.GridGeom {
	return nbody.GridGeom{Origin: g.Edge, Dx: g.Dx}
}

// ContainsPos reports whether an extended-precision position lies inside
// the grid's active region.
func (g *Grid) ContainsPos(x, y, z ep128.Dd) bool {
	pos := [3]ep128.Dd{x, y, z}
	n := [3]int{g.Nx, g.Ny, g.Nz}
	for d := 0; d < 3; d++ {
		rel := pos[d].Sub(g.Edge[d]).Float64()
		if rel < 0 || rel >= float64(n[d])*g.Dx {
			return false
		}
	}
	return true
}

// String describes the grid compactly.
func (g *Grid) String() string {
	return fmt.Sprintf("L%d %dx%dx%d @%v", g.Level, g.Nx, g.Ny, g.Nz, g.Lo)
}

// CellVolume returns dx^3.
func (g *Grid) CellVolume() float64 { return g.Dx * g.Dx * g.Dx }

// GasMass returns the total gas mass on the grid.
func (g *Grid) GasMass() float64 { return g.State.Rho.SumActive() * g.CellVolume() }

// totalFields returns the per-cell fields in canonical order used by
// inter-grid copies: hydro fields then DM density.
func (g *Grid) totalFields() []*mesh.Field3 {
	return append(g.State.Fields(), g.DMRho)
}

// offsetWithin returns the offset (in fine cells at child's level) of
// child's active origin within parent's active region. The parent must be
// exactly one level coarser.
func offsetWithin(parent, child *Grid, refine int) (oi, oj, ok int) {
	oi = child.Lo[0] - parent.Lo[0]*refine
	oj = child.Lo[1] - parent.Lo[1]*refine
	ok = child.Lo[2] - parent.Lo[2]*refine
	return
}
