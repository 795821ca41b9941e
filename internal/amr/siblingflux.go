package amr

import "repro/internal/hydro"

// reconcileSiblingFluxes restores exact conservation across faces shared
// by two same-level grids. During the directionally split step each grid
// computes its own flux at a shared face; after the first sweep the two
// estimates can differ slightly (the neighbour's intermediate state is not
// visible mid-step), so one grid's loss is not exactly the other's gain.
// This pass replaces both with their average using the dt-integrated
// fluxes already accumulated in the grids' boundary registers — the flux
// side of the same bookkeeping the coarse/fine correction uses.
func (h *Hierarchy) reconcileSiblingFluxes(level int) {
	if level <= 0 || level >= len(h.Levels) {
		return
	}
	grids := h.Levels[level]
	// Every physical shared face has exactly one (left grid, right grid,
	// image) link with a's high face on b's low face; links that touch
	// along an axis are a subset of the sibling plan, in the same order.
	for _, l := range h.plan(level).links {
		a, b := grids[l.g], grids[l.s]
		for dir, n := range [3]int{a.Nx, a.Ny, a.Nz} {
			if l.d[dir] == n {
				reconcilePair(a, b, dir, l.d, h)
			}
		}
	}
}

// reconcilePair handles grid a's high face touching grid b's low face
// along dir, with b's (periodically shifted) origin at d in a's active
// index space. Transverse overlap is computed in a's face coordinates.
func reconcilePair(a, b *Grid, dir int, d [3]int, h *Hierarchy) {
	// Transverse dims (t1, t2) and sizes for the two grids.
	var an1, an2, bn1, bn2 int
	var aOff1, aOff2 int // b's (shifted) origin minus a's origin, transverse
	switch dir {
	case 0:
		an1, an2, bn1, bn2 = a.Ny, a.Nz, b.Ny, b.Nz
		aOff1, aOff2 = d[1], d[2]
	case 1:
		an1, an2, bn1, bn2 = a.Nx, a.Nz, b.Nx, b.Nz
		aOff1, aOff2 = d[0], d[2]
	default:
		an1, an2, bn1, bn2 = a.Nx, a.Ny, b.Nx, b.Ny
		aOff1, aOff2 = d[0], d[1]
	}
	lo1 := max(0, aOff1)
	hi1 := min(an1, aOff1+bn1)
	lo2 := max(0, aOff2)
	hi2 := min(an2, aOff2+bn2)
	if lo1 >= hi1 || lo2 >= hi2 {
		return
	}
	ta := a.Reg.Face[2*dir+1] // a's high face
	tb := b.Reg.Face[2*dir]   // b's low face
	// a's last interior cell index along dir and b's first.
	aCell := [3]int{a.Nx - 1, a.Ny - 1, a.Nz - 1}[dir]
	nf := a.Reg.NFields
	for c2 := lo2; c2 < hi2; c2++ {
		for c1 := lo1; c1 < hi1; c1++ {
			for q := 0; q < nf; q++ {
				fa, fb := ta.At(q, c1, c2), tb.At(q, c1-aOff1, c2-aOff2)
				avg := 0.5 * (fa + fb)
				dA := (fa - avg) / a.Dx
				dB := (avg - fb) / b.Dx
				applyFaceDelta(a, dir, aCell, c1, c2, q, dA, h)
				applyFaceDelta(b, dir, 0, c1-aOff1, c2-aOff2, q, dB, h)
			}
		}
	}
}

// applyFaceDelta adds a conserved-variable increment to the cell adjacent
// to a face. cAlong is the cell index along dir; (c1,c2) are transverse.
func applyFaceDelta(g *Grid, dir, cAlong, c1, c2, field int, delta float64, h *Hierarchy) {
	if delta == 0 {
		return
	}
	var i, j, k int
	switch dir {
	case 0:
		i, j, k = cAlong, c1, c2
	case 1:
		i, j, k = c1, cAlong, c2
	default:
		i, j, k = c1, c2, cAlong
	}
	st := g.State
	rho := st.Rho.At(i, j, k)
	switch field {
	case hydro.FluxMass:
		nrho := rho + delta
		if nrho <= h.Cfg.Hydro.FloorRho {
			return
		}
		// Keep velocity and specific energies fixed under a pure mass
		// change of the conserved set: momenta and E are corrected by
		// their own field updates below; here adjust rho and rescale.
		st.Vx.Set(i, j, k, st.Vx.At(i, j, k)*rho/nrho)
		st.Vy.Set(i, j, k, st.Vy.At(i, j, k)*rho/nrho)
		st.Vz.Set(i, j, k, st.Vz.At(i, j, k)*rho/nrho)
		st.Etot.Set(i, j, k, st.Etot.At(i, j, k)*rho/nrho)
		st.Eint.Set(i, j, k, st.Eint.At(i, j, k)*rho/nrho)
		st.Rho.Set(i, j, k, nrho)
	case hydro.FluxMomX:
		st.Vx.Add(i, j, k, delta/rho)
	case hydro.FluxMomY:
		st.Vy.Add(i, j, k, delta/rho)
	case hydro.FluxMomZ:
		st.Vz.Add(i, j, k, delta/rho)
	case hydro.FluxEnergy:
		st.Etot.Add(i, j, k, delta/rho)
	default:
		sp := field - hydro.FluxNumBase
		v := st.Species[sp].At(i, j, k) + delta
		if v < 0 {
			v = 0
		}
		st.Species[sp].Set(i, j, k, v)
	}
}
