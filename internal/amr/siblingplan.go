package amr

import "repro/internal/hydro"

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
// placements they were derived from.
type siblingPlan struct {
	boxes []gridBox
	links []siblingLink
}

// siblingLinks returns the level's links in (g, s, periodic image) order —
// images enumerated 0, -B, +B per axis, x outermost — excluding a grid's
// unshifted self. The plan is rebuilt only when the level's grid
// placements differ from those it was built for, an O(G) comparison per
// call, so code that replaces h.Levels directly (rebuild, snapshot
// restore, nested initial conditions) needs no invalidation hook.
func (h *Hierarchy) siblingLinks(level int) []siblingLink {
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
		return p.links
	}
	p.boxes, p.links = p.boxes[:0], p.links[:0]
	for _, g := range grids {
		p.boxes = append(p.boxes, boxOf(g))
	}
	B := h.levelBoxCells(level)
	for gi, g := range p.boxes {
		for si, s := range p.boxes {
			// The halo test is separable, so collect each axis's
			// passing images first; most pairs fail on the first axis.
			var d [3][3]int
			var nd [3]int
			for a := 0; a < 3; a++ {
				for _, sh := range [3]int{0, -B, B} {
					o := s.lo[a] + sh - g.lo[a]
					if o <= g.n[a]+hydro.NGhost && o+s.n[a] >= -hydro.NGhost {
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
					}
				}
			}
		}
	}
	return p.links
}

func boxOf(g *Grid) gridBox { return gridBox{g.Lo, [3]int{g.Nx, g.Ny, g.Nz}} }
