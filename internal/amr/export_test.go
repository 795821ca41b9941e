package amr

// The parent commit's per-cell ghost walk and per-call G²·27 sibling scan,
// kept verbatim (identifiers prefixed "reference") as the oracle the
// boundary tests compare setBoundaries against, bit for bit. Exposed to the
// external test package through the exported variables below.

import (
	"fmt"
	"math"

	"repro/internal/clustering"
	"repro/internal/gravity"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/nbody"
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
	for _, l := range h.plan(level).links {
		out = append(out, [5]int{l.g, l.s, l.d[0], l.d[1], l.d[2]})
	}
	return out
}

// ResidualBoxes returns the level's cached residual ghost boxes, per grid.
func ResidualBoxes(h *Hierarchy, level int) [][]clustering.Box { return h.plan(level).resid }

// FreshResidualBoxes recomputes the residual boxes from a fresh reference
// scan: each grid's NGhost-extended box minus its active box minus every
// link's covered box, through subtractBoxes.
func FreshResidualBoxes(h *Hierarchy, level int) [][]clustering.Box {
	links := ReferenceSiblingLinks(h, level)
	grids := h.Levels[level]
	out := make([][]clustering.Box, len(grids))
	for gi, g := range grids {
		out[gi] = subtractBoxes(ghostExtent(g), coveredBoxes(grids, gi, links))
	}
	return out
}

// ResidualCoverError checks the cached residual boxes cell by cell: every
// cell of a grid's extended box lies in exactly one residual box if no
// link covers it and it is a ghost, and in none otherwise. What a link
// covers is observed through mesh.CopyOverlap itself (linkCoverError).
// Together these are the license for running the parent pass, which
// writes only residual boxes, beside the sibling pass.
func ResidualCoverError(h *Hierarchy, level int) error {
	links := ReferenceSiblingLinks(h, level)
	grids := h.Levels[level]
	resid := h.plan(level).resid
	for _, l := range links {
		if err := linkCoverError(grids, l); err != nil {
			return err
		}
	}
	for gi, g := range grids {
		ext, cuts := ghostExtent(g), coveredBoxes(grids, gi, links)
		for k := ext.Lo[2]; k < ext.Hi[2]; k++ {
			for j := ext.Lo[1]; j < ext.Hi[1]; j++ {
				for i := ext.Lo[0]; i < ext.Hi[0]; i++ {
					written := false
					for _, c := range cuts {
						written = written || c.Contains(i, j, k)
					}
					n := 0
					for _, b := range resid[gi] {
						if b.Contains(i, j, k) {
							n++
						}
					}
					if (written && n != 0) || (!written && n != 1) {
						return fmt.Errorf("grid %d (%v) cell (%d,%d,%d): covered %v, in %d residual boxes", gi, g, i, j, k, written, n)
					}
				}
			}
		}
	}
	return nil
}

// linkCoverError runs one link's CopyOverlap on marker fields: the source
// carries each active cell's flat index and -1 in its ghosts, the
// destination NaN. The copy must write exactly the link's covered box
// within the destination's extended box, each cell from the source's
// active cell at the link's offset.
func linkCoverError(grids []*Grid, l [5]int) error {
	g, s := grids[l[0]], grids[l[1]]
	src := mesh.NewField3(s.Nx, s.Ny, s.Nz, hydro.NGhost)
	for n := range src.Data {
		src.Data[n] = -1
	}
	for k := 0; k < s.Nz; k++ {
		for j := 0; j < s.Ny; j++ {
			for i := 0; i < s.Nx; i++ {
				src.Set(i, j, k, float64(src.Idx(i, j, k)))
			}
		}
	}
	dst := mesh.NewField3(g.Nx, g.Ny, g.Nz, hydro.NGhost)
	for n := range dst.Data {
		dst.Data[n] = math.NaN()
	}
	mesh.CopyOverlap(dst, src, l[2], l[3], l[4], hydro.NGhost)
	ext, cut := ghostExtent(g), coveredBoxes(grids, l[0], [][5]int{l})[1]
	for k := ext.Lo[2]; k < ext.Hi[2]; k++ {
		for j := ext.Lo[1]; j < ext.Hi[1]; j++ {
			for i := ext.Lo[0]; i < ext.Hi[0]; i++ {
				v, covered := dst.At(i, j, k), cut.Contains(i, j, k)
				if math.IsNaN(v) == covered {
					return fmt.Errorf("link %v: cell (%d,%d,%d) of grid %v written %v, in the link's box %v", l, i, j, k, g, !covered, covered)
				}
				if covered && v != float64(src.Idx(i-l[2], j-l[3], k-l[4])) {
					return fmt.Errorf("link %v: cell (%d,%d,%d) of grid %v read source marker %v, not its active cell at the link's offset", l, i, j, k, g, v)
				}
			}
		}
	}
	return nil
}

func ghostExtent(g *Grid) clustering.Box {
	return clustering.Box{
		Lo: [3]int{-hydro.NGhost, -hydro.NGhost, -hydro.NGhost},
		Hi: [3]int{g.Nx + hydro.NGhost, g.Ny + hydro.NGhost, g.Nz + hydro.NGhost},
	}
}

// coveredBoxes returns grid gi's active box followed by each of its links'
// sibling boxes (CopyOverlap writes their part inside the extended box).
func coveredBoxes(grids []*Grid, gi int, links [][5]int) []clustering.Box {
	g := grids[gi]
	cuts := []clustering.Box{{Hi: [3]int{g.Nx, g.Ny, g.Nz}}}
	for _, l := range links {
		if l[0] != gi {
			continue
		}
		s := grids[l[1]]
		c := clustering.Box{Lo: [3]int{l[2], l[3], l[4]}}
		c.Hi = [3]int{c.Lo[0] + s.Nx, c.Lo[1] + s.Ny, c.Lo[2] + s.Nz}
		cuts = append(cuts, c)
	}
	return cuts
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
func ReferencePipeline(h *Hierarchy) physics.Pipeline {
	return append(physics.Pipeline{&referenceGravitySolveOp{gravitySolveOp{h: h}}}, physics.DefaultOperators()...)
}

// referenceSolveGravityLevel is solveGravityLevel as it stood before the
// root was solved once per step: both sibling-exchange passes on every
// level, the root included, per-cell At/Set loops and a serial
// Accelerations.
func referenceSolveGravityLevel(h *Hierarchy, level int) {
	gc := h.gravConstNow()
	grids := h.Levels[level]
	for _, g := range grids {
		serialDepositDM(h, g)
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

// --- The serial level stages: solveGravityLevel, depositDM, rebuildLevel,
// fillFromParent and dilate as they stood before subgrids were solved in
// dependency waves and new grids built in parallel, kept verbatim
// (identifiers prefixed "serial", RebuildHierarchy's loop copied around
// serialRebuildLevel) as the oracles for gravity_test.go and
// rebuild_test.go. ---

// Hooks for the external test package.
var (
	SolveGravityLevel       = (*Hierarchy).solveGravityLevel
	SerialSolveGravityLevel = serialSolveGravityLevel
	SerialRebuildHierarchy  = serialRebuildHierarchy
)

// GravityWaves returns the dependency waves of a level's grids.
func GravityWaves(h *Hierarchy, level int) [][]int { return gravityWaves(h.Levels[level]) }

// serialGravitySolveOp is gravitySolveOp over the serial solve.
type serialGravitySolveOp struct{ gravitySolveOp }

func (o *serialGravitySolveOp) ApplyLevel(level int, dt float64) {
	if o.h.Cfg.SelfGravity {
		serialSolveGravityLevel(o.h, level)
	}
}

// SerialPipeline is DefaultPipeline with the serial subgrid solve as its
// level operator.
func SerialPipeline(h *Hierarchy) physics.Pipeline {
	return append(physics.Pipeline{&serialGravitySolveOp{gravitySolveOp{h: h}}}, physics.DefaultOperators()...)
}

func serialSolveGravityLevel(h *Hierarchy, level int) {
	gc := h.gravConstNow()
	grids := h.Levels[level]
	for _, g := range grids {
		serialDepositDM(h, g)
	}
	passes := 2 // sibling-exchange iterations
	if level == 0 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		for _, g := range grids {
			h.Stats.GravitySolves++
			rhs := mesh.NewField3(g.Nx, g.Ny, g.Nz, 1)
			gas, dm := g.State.Rho, g.DMRho
			for k := 0; k < g.Nz; k++ {
				for j := 0; j < g.Ny; j++ {
					gi, di := gas.Idx(0, j, k), dm.Idx(0, j, k)
					row := rhs.Data[rhs.Idx(0, j, k):][:g.Nx]
					for i := range row {
						row[i] = gc * (gas.Data[gi+i] + dm.Data[di+i] - h.Cfg.MeanRho)
					}
				}
			}
			if g.Level == 0 {
				phi, err := gravity.SolvePeriodicWorkers(rhs, g.Dx, 1.0, h.Cfg.Workers)
				if err == nil {
					// Copy into the grid's wider-ghost field.
					for k := 0; k < g.Nz; k++ {
						for j := 0; j < g.Ny; j++ {
							copy(g.Phi.Data[g.Phi.Idx(0, j, k):][:g.Nx], phi.Data[phi.Idx(0, j, k):])
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
		gx, gy, gz := gravity.Accelerations(g.Phi, g.Dx, h.Cfg.Workers)
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

// serialDepositDM deposits every particle in the hierarchy onto g's DM density
// field (particles outside the grid's halo are skipped by the CIC kernel).
func serialDepositDM(h *Hierarchy, g *Grid) {
	g.DMRho.Zero()
	geom := g.Geom()
	for _, lv := range h.Levels {
		for _, o := range lv {
			if o.Parts.Len() > 0 {
				nbody.DepositCICWorkers(o.Parts, g.DMRho, geom, h.Cfg.Workers)
			}
		}
	}
	if g.Level == 0 {
		nbody.FoldGhostsPeriodic(g.DMRho)
	}
}

// serialRebuildHierarchy is RebuildHierarchy over serialRebuildLevel.
func serialRebuildHierarchy(h *Hierarchy, level int) {
	if level < 1 {
		level = 1
	}
	if h.Cfg.DisableRebuild {
		return
	}
	h.Stats.RebuildCount++
	for l := level; l <= h.Cfg.MaxLevel; l++ {
		serialRebuildLevel(h, l)
		if l >= len(h.Levels) || len(h.Levels[l]) == 0 {
			break // nothing refined here; deeper levels impossible
		}
	}
	// Drop empty trailing levels.
	for len(h.Levels) > 1 && len(h.Levels[len(h.Levels)-1]) == 0 {
		h.Levels = h.Levels[:len(h.Levels)-1]
	}
	if m := h.MaxLevel(); m > h.Stats.MaxLevelEver {
		h.Stats.MaxLevelEver = m
	}
}

// serialRebuildLevel replaces the grids at one level.
func serialRebuildLevel(h *Hierarchy, l int) {
	r := h.Cfg.Refine
	var old []*Grid
	if l < len(h.Levels) {
		old = h.Levels[l]
	}
	var fresh []*Grid
	for _, parent := range h.Levels[l-1] {
		flags := h.flagCells(parent)
		if flags.Count() == 0 {
			parent.Children = nil
			continue
		}
		serialDilate(flags, h.Cfg.RefineBuffer)
		cp := clustering.Params{
			MinEfficiency: h.Cfg.MinEfficiency,
			MaxSize:       max(h.Cfg.MaxGridSize/r, 4),
			MinSize:       2,
		}
		boxes := clustering.Cluster(flags, cp)
		parent.Children = parent.Children[:0]
		for _, b := range boxes {
			b = snapToEven(b, [3]int{parent.Nx, parent.Ny, parent.Nz})
			lo := [3]int{
				(parent.Lo[0] + b.Lo[0]) * r,
				(parent.Lo[1] + b.Lo[1]) * r,
				(parent.Lo[2] + b.Lo[2]) * r,
			}
			nx := (b.Hi[0] - b.Lo[0]) * r
			ny := (b.Hi[1] - b.Lo[1]) * r
			nz := (b.Hi[2] - b.Lo[2]) * r
			g := NewGrid(l, lo, nx, ny, nz, h.Cfg.RootN, r, h.Cfg.NSpecies)
			g.Parent = parent
			g.Time = parent.Time
			// Fill: interpolate from parent everywhere, then overwrite
			// with old same-level data where available.
			serialFillFromParent(g, parent, r)
			for _, o := range old {
				copyFromSibling(g, o)
			}
			parent.Children = append(parent.Children, g)
			fresh = append(fresh, g)
			h.Stats.GridsCreated++
		}
	}
	h.Stats.GridsDeleted += int64(len(old))

	// Re-home particles: old level-l particles and parent particles that
	// now fall inside a new grid. The fallback search must use only live
	// grids (levels below l have already been rebuilt).
	for _, o := range old {
		h.rehomeParticles(o.Parts, fresh, l-1)
		o.Parts = nbody.New(0)
	}
	for _, parent := range h.Levels[l-1] {
		if len(fresh) == 0 {
			break
		}
		kept := nbody.New(parent.Parts.Len())
		for i := 0; i < parent.Parts.Len(); i++ {
			placed := false
			for _, g := range fresh {
				if g.ContainsPos(parent.Parts.X[i], parent.Parts.Y[i], parent.Parts.Z[i]) {
					g.Parts.Add(parent.Parts.X[i], parent.Parts.Y[i], parent.Parts.Z[i],
						parent.Parts.Vx[i], parent.Parts.Vy[i], parent.Parts.Vz[i],
						parent.Parts.Mass[i], parent.Parts.ID[i])
					placed = true
					break
				}
			}
			if !placed {
				kept.Add(parent.Parts.X[i], parent.Parts.Y[i], parent.Parts.Z[i],
					parent.Parts.Vx[i], parent.Parts.Vy[i], parent.Parts.Vz[i],
					parent.Parts.Mass[i], parent.Parts.ID[i])
			}
		}
		parent.Parts = kept
	}

	if l < len(h.Levels) {
		h.Levels[l] = fresh
	} else {
		h.Levels = append(h.Levels, fresh)
	}
}

// serialFillFromParent seeds a new grid's fields by conservative interpolation
// from its parent, including two ghost layers (the rest are refreshed by
// setBoundaries before the next step).
func serialFillFromParent(g, parent *Grid, refine int) {
	oi, oj, ok := offsetWithin(parent, g, refine)
	pf := parent.totalFields()
	cf := g.totalFields()
	for fi := range cf {
		mesh.ProlongLinear(pf[fi], cf[fi], oi, oj, ok, refine, 2)
	}
}

// serialDilate expands flags by n cells in every direction (the refinement
// buffer that keeps features inside their subgrid between rebuilds).
func serialDilate(fl *clustering.Flags, n int) {
	if n <= 0 {
		return
	}
	src := make([]bool, len(fl.Data))
	copy(src, fl.Data)
	at := func(i, j, k int) bool {
		if i < 0 || i >= fl.Nx || j < 0 || j >= fl.Ny || k < 0 || k >= fl.Nz {
			return false
		}
		return src[(k*fl.Ny+j)*fl.Nx+i]
	}
	for k := 0; k < fl.Nz; k++ {
		for j := 0; j < fl.Ny; j++ {
			for i := 0; i < fl.Nx; i++ {
				if src[(k*fl.Ny+j)*fl.Nx+i] {
					continue
				}
			scan:
				for dk := -n; dk <= n; dk++ {
					for dj := -n; dj <= n; dj++ {
						for di := -n; di <= n; di++ {
							if at(i+di, j+dj, k+dk) {
								fl.Set(i, j, k, true)
								break scan
							}
						}
					}
				}
			}
		}
	}
}
