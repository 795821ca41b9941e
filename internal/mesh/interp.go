package mesh

// This file implements the inter-level transfer operators of SAMR:
//
//   - Prolong*: parent -> child interpolation, used when new subgrids are
//     created and when subgrid ghost zones are filled from the parent
//     (paper §3.2.1 step 1).
//   - Restrict: child -> parent "projection" of the fine solution onto the
//     coarse cells it covers (paper §3.2.1, the Projection step).
//
// All operators assume an integer refinement factor r and cell-centered
// data, so fine cell (i,j,k) lies inside coarse cell (i/r, j/r, k/r).

// minmod returns the minmod-limited slope of (l, c, r) spaced by 1.
func minmod(l, c, r float64) float64 {
	dl := c - l
	dr := r - c
	if dl*dr <= 0 {
		return 0
	}
	if dl > 0 {
		if dl < dr {
			return dl
		}
		return dr
	}
	if dl > dr {
		return dl
	}
	return dr
}

// ProlongLinear fills a child region with conservative (minmod-limited)
// linear interpolation from the parent. Conservative means the average of
// the r^3 fine values inside a coarse cell equals the coarse value, which
// the symmetric slope reconstruction guarantees. offI/offJ/offK locate the
// child's (0,0,0) active cell in *fine* cells relative to the parent's
// (0,0,0) active cell; r is the refinement factor; nb is the number of
// child ghost layers to fill.
// The parent must have at least one valid ghost layer around the touched
// region.
func ProlongLinear(parent, child *Field3, offI, offJ, offK, r, nb int) {
	p := NewProlongation(child.Nx, child.Ny, child.Nz, offI, offJ, offK, r, nb)
	p.Fill(parent, child, [3]int{-nb, -nb, -nb}, [3]int{child.Nx + nb, child.Ny + nb, child.Nz + nb})
}

// Prolongation is the limited-linear parent→child map of one child grid:
// for every child index within nb of the active region, per axis, the
// parent cell containing it and the fine cell centre's offset from that
// parent cell's centre in coarse cell widths (in (-1/2, 1/2)). Both depend
// only on the grid's placement, so one value serves all of a grid's fields.
// Fill keeps its slope row in the map, so one Prolongation serves one
// goroutine at a time.
type Prolongation struct {
	nb  int
	idx [3][]int     // parent active index of child index i, at [i+nb]
	w   [3][]float64 // centre offset of child index i, at [i+nb]
	row []float64    // Fill's c, sx, sy, sz per parent cell of one parent row
}

// NewProlongation builds the map for a child of nx×ny×nz active cells
// whose (0,0,0) lies offI/offJ/offK fine cells from the parent's, at
// refinement factor r, covering nb child ghost layers.
func NewProlongation(nx, ny, nz, offI, offJ, offK, r, nb int) *Prolongation {
	p := &Prolongation{nb: nb}
	n := [3]int{nx + 2*nb, ny + 2*nb, nz + 2*nb}
	off := [3]int{offI, offJ, offK}
	idx := make([]int, n[0]+n[1]+n[2])
	// The parent cells under the child's x extent, for the slope row.
	np := FloorDiv(off[0]+nx+nb-1, r) - FloorDiv(off[0]-nb, r) + 1
	w := make([]float64, len(idx)+4*np)
	p.row = w[len(idx):]
	rf := float64(r)
	for d := 0; d < 3; d++ {
		p.idx[d], idx = idx[:n[d]], idx[n[d]:]
		p.w[d], w = w[:n[d]], w[n[d]:]
		for t := range p.idx[d] {
			f := off[d] + t - nb
			pi := FloorDiv(f, r)
			p.idx[d][t] = pi
			p.w[d][t] = (float64(f-pi*r)+0.5)/rf - 0.5
		}
	}
	return p
}

// Fill interpolates the child cells of the box [lo, hi) (child active
// indices; ghosts are negative or >= N) from the parent, row by row over
// flat Data: the three limited slopes of a parent row are computed once
// and reused by every child row beneath it (up to r² of them) and by the r
// fine cells of each that share a parent cell.
func (p *Prolongation) Fill(parent, child *Field3, lo, hi [3]int) {
	if lo[0] >= hi[0] {
		return
	}
	pd, cd := parent.Data, child.Data
	psy, psz := parent.sx, parent.sy
	nb := p.nb
	ix := p.idx[0][lo[0]+nb : hi[0]+nb]
	wx := p.w[0][lo[0]+nb : hi[0]+nb]
	pi0 := ix[0]
	row := p.row[:4*(ix[len(ix)-1]-pi0+1)]
	for k0, k1 := lo[2], 0; k0 < hi[2]; k0 = k1 {
		k1 = p.runEnd(2, k0, hi[2])
		pk := p.idx[2][k0+nb]
		for j0, j1 := lo[1], 0; j0 < hi[1]; j0 = j1 {
			j1 = p.runEnd(1, j0, hi[1])
			q := parent.Idx(pi0, p.idx[1][j0+nb], pk)
			for m := 0; m < len(row); m, q = m+4, q+1 {
				c := pd[q]
				row[m] = c
				row[m+1] = minmod(pd[q-1], c, pd[q+1])
				row[m+2] = minmod(pd[q-psy], c, pd[q+psy])
				row[m+3] = minmod(pd[q-psz], c, pd[q+psz])
			}
			for k := k0; k < k1; k++ {
				zk := p.w[2][k+nb]
				for j := j0; j < j1; j++ {
					zj := p.w[1][j+nb]
					cbase := child.Idx(lo[0], j, k)
					out := cd[cbase : cbase+len(ix)]
					for n, pi := range ix {
						s := row[4*(pi-pi0):][:4]
						out[n] = s[0] + s[1]*wx[n] + s[2]*zj + s[3]*zk
					}
				}
			}
		}
	}
}

// runEnd returns the first child index after t along axis d, capped at
// hi, that lies in another parent cell than t.
func (p *Prolongation) runEnd(d, t, hi int) int {
	e := t + 1
	for e < hi && p.idx[d][e+p.nb] == p.idx[d][t+p.nb] {
		e++
	}
	return e
}

// Restrict projects the child's active region onto the parent by averaging
// each block of r^3 fine cells into the coarse cell that contains it.
// The child's active size must be a multiple of r in every dimension.
func Restrict(parent, child *Field3, offI, offJ, offK, r int) {
	if r == 2 {
		restrict2(parent, child, offI, offJ, offK)
		return
	}
	inv := 1.0 / float64(r*r*r)
	for pk := 0; pk < child.Nz/r; pk++ {
		for pj := 0; pj < child.Ny/r; pj++ {
			for pi := 0; pi < child.Nx/r; pi++ {
				var s float64
				for dk := 0; dk < r; dk++ {
					for dj := 0; dj < r; dj++ {
						for di := 0; di < r; di++ {
							s += child.At(pi*r+di, pj*r+dj, pk*r+dk)
						}
					}
				}
				parent.Set(offI/r+pi, offJ/r+pj, offK/r+pk, s*inv)
			}
		}
	}
}

// restrict2 is the refinement-factor-2 fast path of Restrict: each coarse
// cell averages a 2×2×2 fine block, walked with flat strides. The eight
// summands are added in the same (dk, dj, di) order as the generic loop,
// so the result is bitwise identical.
func restrict2(parent, child *Field3, offI, offJ, offK int) {
	const inv = 1.0 / 8
	cd, pd := child.Data, parent.Data
	sy, sz := child.StrideY(), child.StrideZ()
	for pk := 0; pk < child.Nz/2; pk++ {
		for pj := 0; pj < child.Ny/2; pj++ {
			cIdx := child.Idx(0, 2*pj, 2*pk)
			pIdx := parent.Idx(offI/2, offJ/2+pj, offK/2+pk)
			for pi := 0; pi < child.Nx/2; pi++ {
				b := cIdx + 2*pi
				s := cd[b] + cd[b+1] +
					cd[b+sy] + cd[b+1+sy] +
					cd[b+sz] + cd[b+1+sz] +
					cd[b+sy+sz] + cd[b+1+sy+sz]
				pd[pIdx+pi] = s * inv
			}
		}
	}
}

// CopyOverlap copies values from src to dst where their active regions
// overlap. Both grids share a mesh spacing; (di,dj,dk) is the position of
// src's (0,0,0) active cell in dst's active index space. Ghost layers of
// dst within nb of its active region are also filled where src has data.
// Used for sibling boundary exchange (paper §3.2.1 step 2).
func CopyOverlap(dst, src *Field3, di, dj, dk, nb int) {
	// Range of dst indices (including nb ghosts) covered by src actives.
	i0 := max(-nb, di)
	i1 := min(dst.Nx+nb, di+src.Nx)
	j0 := max(-nb, dj)
	j1 := min(dst.Ny+nb, dj+src.Ny)
	k0 := max(-nb, dk)
	k1 := min(dst.Nz+nb, dk+src.Nz)
	if i0 >= i1 {
		return
	}
	n := i1 - i0
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			d := dst.Idx(i0, j, k)
			s := src.Idx(i0-di, j-dj, k-dk)
			copy(dst.Data[d:d+n], src.Data[s:s+n])
		}
	}
}

// FloorDiv returns a/b rounded toward negative infinity: the coarse cell
// containing fine index a at refinement factor b, ghosts (a < 0) included.
func FloorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
