package amr

// The parent commit's per-cell ghost walk and per-call G²·27 sibling scan,
// kept verbatim (identifiers prefixed "reference") as the oracle the
// boundary tests compare setBoundaries against, bit for bit. Exposed to the
// external test package through the exported variables below.

import (
	"math"

	"repro/internal/gravity"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// Hooks for boundary_test.go (package amr_test).
var (
	SetBoundaries          = (*Hierarchy).setBoundaries
	ReferenceSetBoundaries = referenceSetBoundaries
)

// ReferenceSiblingLinks returns the (g, s, offset) triples the reference
// scan visits on a level, in its order.
func ReferenceSiblingLinks(h *Hierarchy, level int) [][5]int {
	var out [][5]int
	B := h.levelBoxCells(level)
	for gi, g := range h.Levels[level] {
		for si, s := range h.Levels[level] {
			for _, sh := range referencePeriodicShifts(B) {
				if s == g && sh == [3]int{} {
					continue
				}
				di := s.Lo[0] + sh[0] - g.Lo[0]
				dj := s.Lo[1] + sh[1] - g.Lo[1]
				dk := s.Lo[2] + sh[2] - g.Lo[2]
				if di > g.Nx+hydro.NGhost || di+s.Nx < -hydro.NGhost ||
					dj > g.Ny+hydro.NGhost || dj+s.Ny < -hydro.NGhost ||
					dk > g.Nz+hydro.NGhost || dk+s.Nz < -hydro.NGhost {
					continue
				}
				out = append(out, [5]int{gi, si, di, dj, dk})
			}
		}
	}
	return out
}

// SiblingLinks returns the level's cached plan in the same shape.
func SiblingLinks(h *Hierarchy, level int) [][5]int {
	var out [][5]int
	for _, l := range h.siblingLinks(level) {
		out = append(out, [5]int{l.g, l.s, l.d[0], l.d[1], l.d[2]})
	}
	return out
}

// referenceSetBoundaries is setBoundaries as it stood before the row
// kernel, the sibling plan and the parallel parent pass.
func referenceSetBoundaries(h *Hierarchy, level int) {
	if level >= len(h.Levels) {
		return
	}
	for _, g := range h.Levels[level] {
		h.Stats.BoundaryFills++
		if g.Level == 0 {
			for _, f := range g.totalFields() {
				f.ApplyPeriodicBC()
			}
			continue
		}
		referenceFillGhostsFromParent(g, h.Cfg.Refine)
	}
	// Sibling pass: overwrite ghost values where a same-level grid has
	// the higher-resolution answer. Periodic images are included (a grid
	// spanning the box is its own periodic sibling), so fine data wins
	// over coarse parent interpolation across the box boundary too.
	B := h.levelBoxCells(level)
	for _, g := range h.Levels[level] {
		if g.Level == 0 {
			continue
		}
		for _, s := range h.Levels[level] {
			for _, sh := range referencePeriodicShifts(B) {
				if s == g && sh == [3]int{} {
					continue
				}
				di := s.Lo[0] + sh[0] - g.Lo[0]
				dj := s.Lo[1] + sh[1] - g.Lo[1]
				dk := s.Lo[2] + sh[2] - g.Lo[2]
				// Quick reject: no overlap within ghost halo.
				if di > g.Nx+hydro.NGhost || di+s.Nx < -hydro.NGhost ||
					dj > g.Ny+hydro.NGhost || dj+s.Ny < -hydro.NGhost ||
					dk > g.Nz+hydro.NGhost || dk+s.Nz < -hydro.NGhost {
					continue
				}
				gf := g.totalFields()
				sf := s.totalFields()
				for fi := range gf {
					mesh.CopyOverlap(gf[fi], sf[fi], di, dj, dk, hydro.NGhost)
				}
			}
		}
	}
}

// referencePeriodicShifts enumerates the 27 periodic image offsets for box size B.
func referencePeriodicShifts(B int) [][3]int {
	out := make([][3]int, 0, 27)
	for _, sx := range [3]int{0, -B, B} {
		for _, sy := range [3]int{0, -B, B} {
			for _, sz := range [3]int{0, -B, B} {
				out = append(out, [3]int{sx, sy, sz})
			}
		}
	}
	return out
}

// referenceFillGhostsFromParent interpolates every ghost cell of the child from its
// parent with limited linear reconstruction (all boundary values "first
// interpolated from the grid's parent").
func referenceFillGhostsFromParent(g *Grid, refine int) {
	p := g.Parent
	if p == nil {
		return
	}
	oi, oj, ok := offsetWithin(p, g, refine)
	pf := p.totalFields()
	cf := g.totalFields()
	ng := hydro.NGhost
	rf := float64(refine)
	for fi := range cf {
		pField := pf[fi]
		cField := cf[fi]
		for k := -ng; k < g.Nz+ng; k++ {
			kGhost := k < 0 || k >= g.Nz
			for j := -ng; j < g.Ny+ng; j++ {
				jGhost := j < 0 || j >= g.Ny
				for i := -ng; i < g.Nx+ng; i++ {
					if !(kGhost || jGhost || i < 0 || i >= g.Nx) {
						i = g.Nx - 1 // skip interior span
						continue
					}
					fi3 := oi + i
					fj3 := oj + j
					fk3 := ok + k
					pi := referenceFloorDiv(fi3, refine)
					pj := referenceFloorDiv(fj3, refine)
					pk := referenceFloorDiv(fk3, refine)
					zi := (float64(fi3-pi*refine)+0.5)/rf - 0.5
					zj := (float64(fj3-pj*refine)+0.5)/rf - 0.5
					zk := (float64(fk3-pk*refine)+0.5)/rf - 0.5
					c := pField.At(pi, pj, pk)
					sx := referenceMinmod3(pField.At(pi-1, pj, pk), c, pField.At(pi+1, pj, pk))
					sy := referenceMinmod3(pField.At(pi, pj-1, pk), c, pField.At(pi, pj+1, pk))
					sz := referenceMinmod3(pField.At(pi, pj, pk-1), c, pField.At(pi, pj, pk+1))
					cField.Set(i, j, k, c+sx*zi+sy*zj+sz*zk)
				}
			}
		}
	}
}

func referenceMinmod3(l, c, r float64) float64 {
	dl := c - l
	dr := r - c
	if dl*dr <= 0 {
		return 0
	}
	if math.Abs(dl) < math.Abs(dr) {
		return dl
	}
	return dr
}

func referenceFloorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ReconcileSiblingFluxes exposes the plan-driven pass.
var ReconcileSiblingFluxes = (*Hierarchy).reconcileSiblingFluxes

// ReferenceReconcileSiblingFluxes is reconcileSiblingFluxes with the parent
// commit's own G²·27 enumeration of touching faces.
func ReferenceReconcileSiblingFluxes(h *Hierarchy, level int) {
	if level <= 0 || level >= len(h.Levels) {
		return
	}
	grids := h.Levels[level]
	B := h.levelBoxCells(level)
	for _, a := range grids {
		for _, b := range grids {
			for _, sh := range referencePeriodicShifts(B) {
				if a == b && sh == [3]int{} {
					continue
				}
				for dir := 0; dir < 3; dir++ {
					if a.Hi()[dir] == b.Lo[dir]+sh[dir] {
						d := [3]int{b.Lo[0] + sh[0] - a.Lo[0], b.Lo[1] + sh[1] - a.Lo[1], b.Lo[2] + sh[2] - a.Lo[2]}
						reconcilePair(a, b, dir, d, h)
					}
				}
			}
		}
	}
}

// referenceGravitySolveOp is gravitySolveOp over the parent's solve.
type referenceGravitySolveOp struct{ gravitySolveOp }

func (o *referenceGravitySolveOp) ApplyLevel(level int, dt float64) {
	if o.h.Cfg.SelfGravity {
		referenceSolveGravityLevel(o.h, level)
	}
}

// ReferencePipeline is DefaultPipeline with the parent's two-pass gravity
// solve as its level operator (gravity_test.go).
func ReferencePipeline(h *Hierarchy) *physics.Pipeline {
	ops := append([]physics.Operator{&referenceGravitySolveOp{gravitySolveOp{h: h}}}, physics.DefaultOperators()...)
	return physics.NewPipeline(ops...)
}

// referenceSolveGravityLevel is solveGravityLevel as it stood before the
// root was solved once per step: both sibling-exchange passes on every
// level, the root included, per-cell At/Set loops and a serial
// Accelerations.
func referenceSolveGravityLevel(h *Hierarchy, level int) {
	gc := h.gravConstNow()
	grids := h.Levels[level]
	for _, g := range grids {
		h.depositDM(g)
	}
	const siblingIters = 2
	for pass := 0; pass < siblingIters; pass++ {
		for _, g := range grids {
			h.Stats.GravitySolves++
			rhs := mesh.NewField3(g.Nx, g.Ny, g.Nz, 1)
			for k := 0; k < g.Nz; k++ {
				for j := 0; j < g.Ny; j++ {
					for i := 0; i < g.Nx; i++ {
						rhs.Set(i, j, k, gc*(g.State.Rho.At(i, j, k)+g.DMRho.At(i, j, k)-h.Cfg.MeanRho))
					}
				}
			}
			if g.Level == 0 {
				total := mesh.NewField3(g.Nx, g.Ny, g.Nz, 1)
				copy(total.Data, rhs.Data)
				phi, err := gravity.SolvePeriodicWorkers(total, g.Dx, 1.0, h.Cfg.Workers)
				if err == nil {
					// Copy into the grid's wider-ghost field.
					for k := 0; k < g.Nz; k++ {
						for j := 0; j < g.Ny; j++ {
							for i := 0; i < g.Nx; i++ {
								g.Phi.Set(i, j, k, phi.At(i, j, k))
							}
						}
					}
					g.Phi.ApplyPeriodicBC()
				}
				continue
			}
			// Subgrid: Dirichlet ghosts from the parent potential, then
			// overwrite with any sibling's fresher values.
			fillPhiGhosts(g, h.Cfg.Refine)
			for _, s := range grids {
				if s == g {
					continue
				}
				mesh.CopyOverlap(g.Phi, s.Phi, s.Lo[0]-g.Lo[0], s.Lo[1]-g.Lo[1], s.Lo[2]-g.Lo[2], 1)
			}
			mg := gravity.DefaultMGParams()
			mg.Workers = h.Cfg.Workers
			gravity.SolveMultigrid(g.Phi, rhs, g.Dx, mg)
			g.Phi.ApplyOutflowBC()
		}
	}
	for _, g := range grids {
		gx, gy, gz := referenceAccelerations(g.Phi, g.Dx)
		if g.Level == 0 {
			gx.ApplyPeriodicBC()
			gy.ApplyPeriodicBC()
			gz.ApplyPeriodicBC()
		} else {
			gx.ApplyOutflowBC()
			gy.ApplyOutflowBC()
			gz.ApplyOutflowBC()
		}
		g.GAcc = [3]*mesh.Field3{gx, gy, gz}
	}
}

// referenceAccelerations is the parent's gravity.Accelerations.
func referenceAccelerations(phi *mesh.Field3, dx float64) (gx, gy, gz *mesh.Field3) {
	gx = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	gy = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	gz = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	inv2dx := 1 / (2 * dx)
	for k := 0; k < phi.Nz; k++ {
		for j := 0; j < phi.Ny; j++ {
			for i := 0; i < phi.Nx; i++ {
				gx.Set(i, j, k, -(phi.At(i+1, j, k)-phi.At(i-1, j, k))*inv2dx)
				gy.Set(i, j, k, -(phi.At(i, j+1, k)-phi.At(i, j-1, k))*inv2dx)
				gz.Set(i, j, k, -(phi.At(i, j, k+1)-phi.At(i, j, k-1))*inv2dx)
			}
		}
	}
	return
}
