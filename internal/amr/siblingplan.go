package amr

import (
	"repro/internal/clustering"
	"repro/internal/hydro"
)

// siblingLink is one entry of a level's sibling plan: grid s (an index
// into the level), displaced by a periodic image so that its first active
// cell sits at d in grid g's active index space, reaches g's ghost halo.
type siblingLink struct {
	g, s int
	d    [3]int
}

// gridBox is the placement of one grid — all a sibling plan depends on.
type gridBox struct{ lo, n [3]int }

// siblingPlan caches the links of one level together with the grid
// placements they were derived from, and each grid's residual boxes.
type siblingPlan struct {
	boxes []gridBox
	links []siblingLink
	// resid[g] covers, in disjoint boxes of g's active index space, the
	// ghost cells of grid g that no link writes: the only ghosts the
	// parent pass has to prolong.
	resid [][]clustering.Box
}

// plan returns the level's sibling plan. Links come in (g, s, periodic
// image) order — images enumerated 0, -B, +B per axis, x outermost —
// excluding a grid's unshifted self. The plan is rebuilt only when the
// level's grid placements differ from those it was built for, an O(G)
// comparison per call, so code that replaces h.Levels directly (rebuild,
// snapshot restore, nested initial conditions) needs no invalidation hook.
func (h *Hierarchy) plan(level int) *siblingPlan {
	for len(h.plans) <= level {
		h.plans = append(h.plans, siblingPlan{})
	}
	p := &h.plans[level]
	grids := h.Levels[level]
	valid := len(p.boxes) == len(grids)
	for i := 0; valid && i < len(grids); i++ {
		valid = p.boxes[i] == boxOf(grids[i])
	}
	if valid {
		return p
	}
	p.boxes, p.links, p.resid = p.boxes[:0], p.links[:0], p.resid[:0]
	for _, g := range grids {
		p.boxes = append(p.boxes, boxOf(g))
	}
	B, ng := h.levelBoxCells(level), hydro.NGhost
	for gi, g := range p.boxes {
		// The grid's residual boxes: its ng-extended box minus its active
		// box minus every link's covered box (what its CopyOverlap writes).
		cuts := []clustering.Box{{Hi: g.n}}
		for si, s := range p.boxes {
			// The halo test is separable, so collect each axis's
			// passing images first; most pairs fail on the first axis.
			var d [3][3]int
			var nd [3]int
			for a := 0; a < 3; a++ {
				for _, sh := range [3]int{0, -B, B} {
					o := s.lo[a] + sh - g.lo[a]
					if o <= g.n[a]+ng && o+s.n[a] >= -ng {
						d[a][nd[a]] = o
						nd[a]++
					}
				}
			}
			for _, di := range d[0][:nd[0]] {
				for _, dj := range d[1][:nd[1]] {
					for _, dk := range d[2][:nd[2]] {
						if gi == si && di == 0 && dj == 0 && dk == 0 {
							continue
						}
						p.links = append(p.links, siblingLink{gi, si, [3]int{di, dj, dk}})
						cuts = append(cuts, clustering.Box{Lo: [3]int{di, dj, dk}, Hi: [3]int{di + s.n[0], dj + s.n[1], dk + s.n[2]}})
					}
				}
			}
		}
		ext := clustering.Box{Lo: [3]int{-ng, -ng, -ng}, Hi: [3]int{g.n[0] + ng, g.n[1] + ng, g.n[2] + ng}}
		p.resid = append(p.resid, subtractBoxes(ext, cuts))
	}
	return p
}

func boxOf(g *Grid) gridBox { return gridBox{g.Lo, [3]int{g.Nx, g.Ny, g.Nz}} }
