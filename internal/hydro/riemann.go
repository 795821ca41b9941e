package hydro

import "math"

// Riemann solvers. Interface states are primitive: (rho, u, v, w, p) with
// passive scalars (eint and species mass fractions). Fluxes are written
// for the conserved set (rho, rho*u, rho*v, rho*w, E) plus the passives as
// rho*q advected with the mass flux.

// iface bundles the reconstructed primitive states at one interface (the
// FD solver's per-interface Rusanov flux).
type iface struct {
	rhoL, uL, vL, wL, pL float64
	rhoR, uR, vR, wR, pR float64
}

// ifaceFlux is the conserved flux through one interface, plus the
// advection velocity used for upwinding passives and the pdV term.
type ifaceFlux struct {
	mass, momU, momV, momW, energy float64
	uStar                          float64
	// passive upwind sign: >0 means take left state, <0 right
	upwind float64
}

// hllcPencil solves the Riemann problem with the HLLC approximate solver
// (Toro 1994), which restores the contact wave missing from HLL and is the
// standard pairing for PPM-class schemes, at every interface lo..hi of the
// pencil. It reads the floored states straight from the state rows and
// writes the flux rows, uStar and the passive fluxes in place, with no
// per-interface struct. Only the side whose flux the interface's region is
// built on has its energy and Euler flux evaluated, and the passives take
// that side's state (left in the left fan and star region, right
// otherwise).
func hllcPencil(pc *pencil, lo, hi int, par Params) {
	gamma := par.Gamma
	floorP := (gamma - 1) * par.FloorRho * par.FloorEint
	// Hoist the state rows out of the per-interface loop: pc.stL[v][f]
	// costs two dependent loads per access in this innermost loop.
	stL0, stL1, stL2, stL3, stL4 := pc.stL[0], pc.stL[1], pc.stL[2], pc.stL[3], pc.stL[4]
	stR0, stR1, stR2, stR3, stR4 := pc.stR[0], pc.stR[1], pc.stR[2], pc.stR[3], pc.stR[4]
	fMass, fMomU, fMomV, fMomW := pc.fMass, pc.fMomU, pc.fMomV, pc.fMomW
	fE, uStar := pc.fE, pc.uStar
	for f := lo; f <= hi; f++ {
		rhoL, uL, vL, wL, pL := max(stL0[f], par.FloorRho), stL1[f], stL2[f], stL3[f], max(stL4[f], floorP)
		rhoR, uR, vR, wR, pR := max(stR0[f], par.FloorRho), stR1[f], stR2[f], stR3[f], max(stR4[f], floorP)
		cL := math.Sqrt(gamma * pL / rhoL)
		cR := math.Sqrt(gamma * pR / rhoR)
		sL := min(uL-cL, uR-cR)
		sR := max(uL+cL, uR+cR)

		// The region: a supersonic fan, or a star region beside the
		// contact moving at sStar; right picks the side it is built on.
		right, star, sStar := false, false, 0.0
		switch {
		case sL >= 0:
		case sR <= 0:
			right = true
		default:
			star = true
			num := pR - pL + rhoL*uL*(sL-uL) - rhoR*uR*(sR-uR)
			den := rhoL*(sL-uL) - rhoR*(sR-uR)
			if den != 0 {
				sStar = num / den
			}
			right = !(sStar >= 0)
		}
		// That side's primitives and wave speed (sK only in a star region).
		rho, u, v, w, p, sK := rhoL, uL, vL, wL, pL, sL
		if right {
			rho, u, v, w, p, sK = rhoR, uR, vR, wR, pR, sR
		}
		fl, e := sideFlux(rho, u, v, w, p, gamma)
		mass, momU, momV, momW, energy := fl.mass, fl.momU, fl.momV, fl.momW, fl.energy
		us := u
		if star {
			rhoS := rho * (sK - u) / (sK - sStar)
			mass += sK * (rhoS - rho)
			momU += sK * (rhoS*sStar - rho*u)
			momV += sK * (rhoS*v - rho*v)
			momW += sK * (rhoS*w - rho*w)
			eS := rhoS * (e/rho + (sStar-u)*(sStar+p/(rho*(sK-u))))
			energy += sK * (eS - e)
			us = sStar
		}
		fMass[f] = mass
		fMomU[f] = momU
		fMomV[f] = momV
		fMomW[f] = momW
		fE[f] = energy
		uStar[f] = us
		pc.upwindPassives(f, mass, rho, right)
	}
}

// upwindPassives writes interface f's internal-energy and species fluxes:
// passive scalars ride the mass flux, upwinded at the contact — the left
// state unless right is set. Species are advected as mass fractions
// q = rho_s/rho, with rho the upwind side's floored density, so only that
// side's quotient is formed. Both solvers share this rule.
func (pc *pencil) upwindPassives(f int, mass, rho float64, right bool) {
	st := pc.stL
	if right {
		st = pc.stR
	}
	pc.fEint[f] = mass * st[5][f]
	for sp, fs := range pc.fSpecies {
		fs[f] = mass * (st[6+sp][f] / rho)
	}
}

// rusanov is the local Lax-Friedrichs flux: maximally dissipative but
// positivity-preserving — the "robust" half of the paper's solver pair.
func rusanov(s iface, gamma float64) ifaceFlux {
	cL := math.Sqrt(gamma * s.pL / s.rhoL)
	cR := math.Sqrt(gamma * s.pR / s.rhoR)
	smax := max(math.Abs(s.uL)+cL, math.Abs(s.uR)+cR)

	fL, eL := sideFlux(s.rhoL, s.uL, s.vL, s.wL, s.pL, gamma)
	fR, eR := sideFlux(s.rhoR, s.uR, s.vR, s.wR, s.pR, gamma)

	f := ifaceFlux{
		mass:   0.5*(fL.mass+fR.mass) - 0.5*smax*(s.rhoR-s.rhoL),
		momU:   0.5*(fL.momU+fR.momU) - 0.5*smax*(s.rhoR*s.uR-s.rhoL*s.uL),
		momV:   0.5*(fL.momV+fR.momV) - 0.5*smax*(s.rhoR*s.vR-s.rhoL*s.vL),
		momW:   0.5*(fL.momW+fR.momW) - 0.5*smax*(s.rhoR*s.wR-s.rhoL*s.wL),
		energy: 0.5*(fL.energy+fR.energy) - 0.5*smax*(eR-eL),
	}
	f.uStar = 0.5 * (s.uL + s.uR)
	f.upwind = f.mass
	return f
}

// sideFlux returns the Euler flux of one side's primitive state and its
// total energy density.
func sideFlux(rho, u, v, w, p, gamma float64) (ifaceFlux, float64) {
	e := p/(gamma-1) + 0.5*rho*(u*u+v*v+w*w)
	return eulerFlux(rho, u, v, w, p, e), e
}

func eulerFlux(rho, u, v, w, p, e float64) ifaceFlux {
	return ifaceFlux{
		mass:   rho * u,
		momU:   rho*u*u + p,
		momV:   rho * u * v,
		momW:   rho * u * w,
		energy: u * (e + p),
	}
}
