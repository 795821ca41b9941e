package mesh

// referenceFill is Prolongation.Fill as it stood before the slopes were
// computed once per parent row: per child row, cached only along x. Kept
// verbatim as the oracle the row-grouped Fill is compared against.
func referenceFill(p *Prolongation, parent, child *Field3, lo, hi [3]int) {
	if lo[0] >= hi[0] {
		return
	}
	pd, cd := parent.Data, child.Data
	psy, psz := parent.sx, parent.sy
	nb := p.nb
	ix := p.idx[0][lo[0]+nb : hi[0]+nb]
	wx := p.w[0][lo[0]+nb : hi[0]+nb]
	for k := lo[2]; k < hi[2]; k++ {
		pk, zk := p.idx[2][k+nb], p.w[2][k+nb]
		for j := lo[1]; j < hi[1]; j++ {
			pj, zj := p.idx[1][j+nb], p.w[1][j+nb]
			pbase := parent.Idx(0, pj, pk)
			cbase := child.Idx(lo[0], j, k)
			out := cd[cbase : cbase+len(ix)]
			prev := ix[0] - 1
			var c, sx, sy, sz float64
			for n, pi := range ix {
				if pi != prev {
					prev = pi
					q := pbase + pi
					c = pd[q]
					sx = minmod(pd[q-1], c, pd[q+1])
					sy = minmod(pd[q-psy], c, pd[q+psy])
					sz = minmod(pd[q-psz], c, pd[q+psz])
				}
				out[n] = c + sx*wx[n] + sy*zj + sz*zk
			}
		}
	}
}
