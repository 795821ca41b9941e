package analysis

// The sample lattice under Slice and ProjectField. Both sample the
// composite solution on a Cartesian lattice — n × n in-plane points times
// nsamp along the line of sight (one for a slice) — and "which grid
// contains this point" is a conjunction of three per-axis interval tests.
// So the periodic wrap, a containment bit and a clamped cell index are
// tabulated once per coordinate, grid and axis instead of once per point,
// with the float expressions of amr.Hierarchy.FinestGridAt and of the cell
// lookup that used to follow it: every pixel is bitwise what the per-point
// locator produced.
//
// FinestGridAt descends greedily, from the root into the *first* child
// containing the point and never into that child's later siblings (the
// order matters: same-level grids may share active cells). The lattice
// reproduces it by painting. Grids are listed in preorder with every
// Children list reversed, containment bits are ANDed with the parent's (a
// grid is only reached through its ancestors), and a line of sight sets
// owner[s] = g for each listed grid containing it, later grids overwriting
// earlier ones: a first child and its subtree come after all its siblings'
// subtrees, so they win, and inside the subtree the argument recurses.
//
// A pixel is a pure function of its owner array and the owners' cell
// indices, so equal inputs are not recomputed. A pixel copies its left
// neighbour when its in-plane coordinate meets every candidate grid of the
// row as the neighbour's does (same containment bit and, where contained,
// same cell); a row copies the previous row of its par.For chunk under the
// same test over every grid. Every pixel stays bitwise what the per-sample
// locator produced, at any worker count.

import (
	"math"

	"repro/internal/amr"
	"repro/internal/par"
)

// axisTable is one coordinate list tabulated against every grid, grid-
// major: entry g*n+c describes coordinate c in grid g (paint order).
type axisTable struct {
	n   int        // coordinates in the list
	in  []bool     // inside grid g and all its ancestors
	idx []int32    // clamped cell index in grid g
	run [][2]int32 // per grid, the bounds [first, last+1) of its set bits
}

// lattice holds the tables of one Slice/ProjectField call: tab[0] and
// tab[1] for the in-plane coordinates, tab[2] along the line of sight.
type lattice struct {
	perm  [3]int      // per box axis, the table holding its cell index
	grids []*amr.Grid // paint order
	tab   [3]axisTable
}

// sampleLattice evaluates pixel on every line of sight of the window
// [lo0,hi0)×[lo1,hi1) (n×n pixel centers) through the sample coordinates
// los along axis — one point, or increasing within (0,1), so that the
// samples inside a grid are one run. owner[s] indexes the finest grid
// covering sample s; it is scratch, valid only during the call. Rows are
// claimed by `workers` par goroutines, each written by exactly one of them.
// pixel must depend only on owner and the owners' cells (lattice.cell):
// equal neighbours are copied, not evaluated.
func sampleLattice(h *amr.Hierarchy, axis int, lo0, hi0, lo1, hi1 float64, n int, los []float64, workers int,
	pixel func(l *lattice, a, b int, owner []int32) float64) [][]float64 {
	out := make([][]float64, n)
	for b := range out {
		out[b] = make([]float64, n)
	}
	c0 := make([]float64, n)
	c1 := make([]float64, n)
	for a := range c0 {
		c0[a] = lo0 + (float64(a)+0.5)*(hi0-lo0)/float64(n)
		c1[a] = lo1 + (float64(a)+0.5)*(hi1-lo1)/float64(n)
	}
	l := newLattice(h, axis, c0, c1, los)
	nsamp := len(los)
	tab0, tab1, run := &l.tab[0], &l.tab[1], l.tab[2].run
	par.For(workers, n, 0, func(_, blo, bhi int) {
		ng := len(l.grids)
		scratch := make([]int32, nsamp+2*ng)
		owner, row, all := scratch[:nsamp], scratch[nsamp:nsamp+ng], scratch[nsamp+ng:]
		for g := range all {
			all[g] = int32(g)
		}
		for b := blo; b < bhi; b++ {
			if b > blo && tab1.repeats(b, all) {
				copy(out[b], out[b-1])
				continue
			}
			// The grids this row can touch, still in paint order.
			cand := row[:0]
			for g := range l.grids {
				if tab1.in[g*n+b] {
					cand = append(cand, int32(g))
				}
			}
			for a := 0; a < n; a++ {
				if a > 0 && tab0.repeats(a, cand) {
					out[b][a] = out[b][a-1]
					continue
				}
				for _, g := range cand {
					if !tab0.in[int(g)*n+a] {
						continue
					}
					seg := owner[run[g][0]:run[g][1]]
					for s := range seg {
						seg[s] = g
					}
				}
				out[b][a] = pixel(l, a, b, owner)
			}
		}
	})
	return out
}

// newLattice tabulates the hierarchy against the three coordinate lists
// (box units; wrapped in place): c0 and c1 in-plane, los along axis.
func newLattice(h *amr.Hierarchy, axis int, c0, c1, los []float64) *lattice {
	l := &lattice{}
	var parent []int
	var walk func(g *amr.Grid, p int)
	walk = func(g *amr.Grid, p int) {
		me := len(l.grids)
		l.grids = append(l.grids, g)
		parent = append(parent, p)
		for c := len(g.Children) - 1; c >= 0; c-- {
			walk(g.Children[c], me)
		}
	}
	walk(h.Root(), -1)

	// The box axis each list runs along: the historical (coord,c0,c1) →
	// (x,y,z) assignment of Slice.
	dims := [3]int{0, 1, 2}
	switch axis {
	case 0:
		dims = [3]int{1, 2, 0}
	case 1:
		dims = [3]int{0, 2, 1}
	}
	for t, xs := range [3][]float64{c0, c1, los} {
		l.perm[dims[t]] = t
		for i, x := range xs { // into the unit periodic box
			if x = math.Mod(x, 1); x < 0 {
				x++
			}
			xs[i] = x
		}
		tab := &l.tab[t]
		tab.n = len(xs)
		tab.in = make([]bool, len(l.grids)*tab.n)
		tab.idx = make([]int32, len(l.grids)*tab.n)
		tab.run = make([][2]int32, len(l.grids))
		for g, grid := range l.grids {
			tab.fill(g, parent[g], grid, dims[t], xs)
		}
	}
	return l
}

// fill tabulates grid g (parent p in paint order, -1 for the root) along
// its box axis d: FinestGridAt's containment test of the grid's active
// region — the root is never tested, the descent starts inside it — and
// the clamped index of the cell each wrapped coordinate falls in.
func (t *axisTable) fill(g, p int, grid *amr.Grid, d int, xs []float64) {
	n := [3]int{grid.Nx, grid.Ny, grid.Nz}[d]
	lo := grid.Edge[d].Float64()
	hi := lo + float64(n)*grid.Dx
	for c, x := range xs {
		in := p < 0 || (x >= lo && x < hi && t.in[p*t.n+c])
		t.in[g*t.n+c] = in
		t.idx[g*t.n+c] = int32(min(max(int((x-lo)/grid.Dx), 0), n-1))
		if in {
			if t.run[g][1] == 0 {
				t.run[g][0] = int32(c)
			}
			t.run[g][1] = int32(c) + 1
		}
	}
}

// repeats reports whether coordinate c meets each grid of gs as
// coordinate c-1 does: the same containment bit and, where contained, the
// same cell index.
func (t *axisTable) repeats(c int, gs []int32) bool {
	for _, g := range gs {
		i := int(g)*t.n + c
		if t.in[i] != t.in[i-1] || t.in[i] && t.idx[i] != t.idx[i-1] {
			return false
		}
	}
	return true
}

// cell returns grid g (an owner index) and, ordered by box axis, the
// indices of its cell under pixel (a,b) at sample s — value's arguments.
func (l *lattice) cell(g int32, a, b, s int) (grid *amr.Grid, i, j, k int) {
	c := [3]int32{
		l.tab[0].idx[int(g)*l.tab[0].n+a],
		l.tab[1].idx[int(g)*l.tab[1].n+b],
		l.tab[2].idx[int(g)*l.tab[2].n+s],
	}
	return l.grids[g], int(c[l.perm[0]]), int(c[l.perm[1]]), int(c[l.perm[2]])
}
