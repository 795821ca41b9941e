package amr

import (
	"math"

	"repro/internal/clustering"
	"repro/internal/mesh"
	"repro/internal/nbody"
	"repro/internal/par"
)

// RebuildHierarchy regenerates the grids on the given level and all finer
// levels from fresh refinement flags (paper §3.2.2): flag cells on the
// parents, cluster the flags into rectangles with the Berger–Rigoutsos
// algorithm, create the new grids (copying from old same-level grids where
// they overlap, interpolating from parents elsewhere), move the particles,
// and delete the old grids.
func (h *Hierarchy) RebuildHierarchy(level int) {
	if level < 1 {
		level = 1
	}
	if h.Cfg.DisableRebuild {
		return
	}
	h.Stats.RebuildCount++
	for l := level; l <= h.Cfg.MaxLevel; l++ {
		h.rebuildLevel(l)
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

// rebuildLevel replaces the grids at one level. Parents are flagged and
// clustered concurrently (each reads only its own fields), then the new
// grids are built concurrently (each writes only itself and reads its
// parent and the old level); the hierarchy links are made serially in
// (parent, box) order, so the result does not depend on the worker count.
func (h *Hierarchy) rebuildLevel(l int) {
	r := h.Cfg.Refine
	var old []*Grid
	if l < len(h.Levels) {
		old = h.Levels[l]
	}
	parents := h.Levels[l-1]
	boxes := make([][]clustering.Box, len(parents))
	par.For(h.Cfg.Workers, len(parents), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			flags := h.flagCells(parents[i])
			if flags.Count() == 0 {
				continue
			}
			dilate(flags, h.Cfg.RefineBuffer)
			cp := clustering.Params{
				MinEfficiency: h.Cfg.MinEfficiency,
				MaxSize:       max(h.Cfg.MaxGridSize/r, 4),
				MinSize:       2,
			}
			boxes[i] = clustering.Cluster(flags, cp)
			for b := range boxes[i] {
				boxes[i][b] = snapToEven(boxes[i][b], [3]int{parents[i].Nx, parents[i].Ny, parents[i].Nz})
			}
		}
	})
	// The new grids in (parent, box) order, as index pairs into boxes.
	var specs [][2]int
	for i := range parents {
		for b := range boxes[i] {
			specs = append(specs, [2]int{i, b})
		}
	}
	fresh := make([]*Grid, len(specs))
	par.For(h.Cfg.Workers, len(specs), 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			parent, b := parents[specs[i][0]], boxes[specs[i][0]][specs[i][1]]
			g := NewGrid(l, [3]int{
				(parent.Lo[0] + b.Lo[0]) * r,
				(parent.Lo[1] + b.Lo[1]) * r,
				(parent.Lo[2] + b.Lo[2]) * r,
			}, (b.Hi[0]-b.Lo[0])*r, (b.Hi[1]-b.Lo[1])*r, (b.Hi[2]-b.Lo[2])*r, h.Cfg.RootN, r, h.Cfg.NSpecies)
			g.Parent = parent
			g.Time = parent.Time
			// Fill: interpolate from the parent wherever no old same-level
			// grid has data, then copy the old data in.
			fillFromParent(g, parent, old, r)
			for _, o := range old {
				copyFromSibling(g, o)
			}
			fresh[i] = g
		}
	})
	for _, parent := range parents {
		parent.Children = nil
	}
	for _, g := range fresh {
		g.Parent.Children = append(g.Parent.Children, g)
	}
	h.Stats.GridsCreated += int64(len(fresh))
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

// rehomeParticles distributes a particle set into whichever of the
// candidate grids contains each particle, otherwise into the finest live
// grid at or below maxFallbackLevel that contains it (root as last
// resort).
func (h *Hierarchy) rehomeParticles(parts *nbody.Particles, candidates []*Grid, maxFallbackLevel int) {
	for i := 0; i < parts.Len(); i++ {
		var dst *Grid
		for _, g := range candidates {
			if g.ContainsPos(parts.X[i], parts.Y[i], parts.Z[i]) {
				dst = g
				break
			}
		}
		if dst == nil {
		search:
			for l := maxFallbackLevel; l >= 1; l-- {
				if l >= len(h.Levels) {
					continue
				}
				for _, g := range h.Levels[l] {
					if g.ContainsPos(parts.X[i], parts.Y[i], parts.Z[i]) {
						dst = g
						break search
					}
				}
			}
		}
		if dst == nil {
			dst = h.Root()
		}
		dst.Parts.Add(parts.X[i], parts.Y[i], parts.Z[i],
			parts.Vx[i], parts.Vy[i], parts.Vz[i], parts.Mass[i], parts.ID[i])
	}
}

// flagCells applies the three refinement criteria of §3.2.3 to a parent
// grid, plus the static zoom-in region.
func (h *Hierarchy) flagCells(parent *Grid) *clustering.Flags {
	cfg := &h.Cfg
	fl := clustering.NewFlags(parent.Nx, parent.Ny, parent.Nz)
	if parent.Level >= cfg.MaxLevel {
		return fl
	}
	vol := parent.CellVolume()
	gamma := cfg.Hydro.Gamma
	gc := h.gravConstNow()
	for k := 0; k < parent.Nz; k++ {
		for j := 0; j < parent.Ny; j++ {
			for i := 0; i < parent.Nx; i++ {
				rho := parent.State.Rho.At(i, j, k)
				// 1. Baryon mass threshold.
				if cfg.MassThresholdGas > 0 && rho*vol > cfg.MassThresholdGas {
					fl.Set(i, j, k, true)
					continue
				}
				// 2. Dark-matter mass threshold.
				if cfg.MassThresholdDM > 0 && parent.DMRho.At(i, j, k)*vol > cfg.MassThresholdDM {
					fl.Set(i, j, k, true)
					continue
				}
				// 3. Jeans length: refine when dx > L_J / N_J.
				if cfg.JeansN > 0 && gc > 0 {
					cs2 := gamma * (gamma - 1) * parent.State.Eint.At(i, j, k)
					total := rho + parent.DMRho.At(i, j, k)
					if total > 0 {
						lj := math.Sqrt(4 * math.Pi * math.Pi * cs2 / (gc * total))
						if parent.Dx > lj/cfg.JeansN {
							fl.Set(i, j, k, true)
							continue
						}
					}
				}
			}
		}
	}
	// Static zoom-in region (the paper's "three additional levels of
	// static meshes" around the forming star).
	if parent.Level < cfg.StaticLevels {
		for k := 0; k < parent.Nz; k++ {
			for j := 0; j < parent.Ny; j++ {
				for i := 0; i < parent.Nx; i++ {
					x := parent.Edge[0].Float64() + (float64(i)+0.5)*parent.Dx
					y := parent.Edge[1].Float64() + (float64(j)+0.5)*parent.Dx
					z := parent.Edge[2].Float64() + (float64(k)+0.5)*parent.Dx
					if x >= cfg.StaticLo[0] && x < cfg.StaticHi[0] &&
						y >= cfg.StaticLo[1] && y < cfg.StaticHi[1] &&
						z >= cfg.StaticLo[2] && z < cfg.StaticHi[2] {
						fl.Set(i, j, k, true)
					}
				}
			}
		}
	}
	return fl
}

// dilate expands flags by n cells in every direction (the refinement
// buffer that keeps features inside their subgrid between rebuilds).
// Dilating by a cube is separable, so it runs as three 1-D passes.
func dilate(fl *clustering.Flags, n int) {
	if n <= 0 {
		return
	}
	src := make([]bool, len(fl.Data))
	dims := [3]int{fl.Nx, fl.Ny, fl.Nz}
	stride := 1
	for a := 0; a < 3; a, stride = a+1, stride*dims[a] {
		copy(src, fl.Data)
		for idx, set := range src {
			if set {
				continue
			}
			c := idx / stride % dims[a]
			for d := max(-n, -c); d <= min(n, dims[a]-1-c); d++ {
				if src[idx+d*stride] {
					fl.Data[idx] = true
					break
				}
			}
		}
	}
}

// snapToEven grows a box so its size is even in every dimension (so the
// child size is a multiple of 2·r and projection/multigrid coarsening stay
// aligned), clamped to the parent's extent.
func snapToEven(b clustering.Box, parentN [3]int) clustering.Box {
	for d := 0; d < 3; d++ {
		if (b.Hi[d]-b.Lo[d])%2 != 0 {
			if b.Hi[d] < parentN[d] {
				b.Hi[d]++
			} else if b.Lo[d] > 0 {
				b.Lo[d]--
			} else {
				b.Hi[d]-- // parent dimension exhausted; shrink instead
			}
		}
	}
	return b
}

// fillFromParent seeds a new grid's fields by conservative interpolation
// from its parent, including two ghost layers (the rest are refreshed by
// setBoundaries before the next step). Active cells inside an old
// same-level grid are skipped: copyFromSibling overwrites exactly those.
func fillFromParent(g, parent *Grid, old []*Grid, refine int) {
	const nb = 2
	oi, oj, ok := offsetWithin(parent, g, refine)
	pl := mesh.NewProlongation(g.Nx, g.Ny, g.Nz, oi, oj, ok, refine, nb)
	active := clustering.Box{Hi: [3]int{g.Nx, g.Ny, g.Nz}}
	var covered []clustering.Box
	for _, o := range old {
		b := clustering.Box{Lo: [3]int{o.Lo[0] - g.Lo[0], o.Lo[1] - g.Lo[1], o.Lo[2] - g.Lo[2]}}
		b.Hi = [3]int{b.Lo[0] + o.Nx, b.Lo[1] + o.Ny, b.Lo[2] + o.Nz}
		if b, overlap := b.Intersect(active); overlap {
			covered = append(covered, b)
		}
	}
	pieces := subtractBoxes(clustering.Box{Lo: [3]int{-nb, -nb, -nb}, Hi: [3]int{g.Nx + nb, g.Ny + nb, g.Nz + nb}}, covered)
	cf := g.totalFields()
	for fi, pf := range parent.totalFields() {
		for _, b := range pieces {
			pl.Fill(pf, cf[fi], b.Lo, b.Hi)
		}
	}
}

// subtractBoxes returns disjoint boxes covering exactly the cells of b
// that lie in none of cuts.
func subtractBoxes(b clustering.Box, cuts []clustering.Box) []clustering.Box {
	out := []clustering.Box{b}
	for _, c := range cuts {
		var next []clustering.Box
		for _, p := range out {
			in, ok := p.Intersect(c)
			if !ok {
				next = append(next, p)
				continue
			}
			// Peel the slabs of p outside c off axis by axis; what is
			// left of p at the end is in.
			for d := 0; d < 3; d++ {
				if p.Lo[d] < in.Lo[d] {
					s := p
					s.Hi[d] = in.Lo[d]
					next = append(next, s)
				}
				if in.Hi[d] < p.Hi[d] {
					s := p
					s.Lo[d] = in.Hi[d]
					next = append(next, s)
				}
				p.Lo[d], p.Hi[d] = in.Lo[d], in.Hi[d]
			}
		}
		out = next
	}
	return out
}

// copyFromSibling overwrites g's cells with o's data where their active
// regions overlap (same level).
func copyFromSibling(g, o *Grid) {
	di := o.Lo[0] - g.Lo[0]
	dj := o.Lo[1] - g.Lo[1]
	dk := o.Lo[2] - g.Lo[2]
	if di > g.Nx || di+o.Nx < 0 || dj > g.Ny || dj+o.Ny < 0 || dk > g.Nz || dk+o.Nz < 0 {
		return
	}
	gf := g.totalFields()
	of := o.totalFields()
	for fi := range gf {
		mesh.CopyOverlap(gf[fi], of[fi], di, dj, dk, 0)
	}
}
