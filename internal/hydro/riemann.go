package hydro

import "math"

// Riemann solvers. Interface states are primitive: (rho, u, v, w, p) with
// passive scalars (eint and species mass fractions). Fluxes are returned
// for the conserved set (rho, rho*u, rho*v, rho*w, E) plus the passives as
// rho*q advected with the mass flux.

// iface bundles the reconstructed primitive states at one interface.
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

// hllc solves the Riemann problem with the HLLC approximate solver
// (Toro 1994), which restores the contact wave missing from HLL and is the
// standard pairing for PPM-class schemes. Only the side whose flux the
// returned region is built on has its energy and Euler flux evaluated.
func hllc(s iface, gamma float64) ifaceFlux {
	cL := math.Sqrt(gamma * s.pL / s.rhoL)
	cR := math.Sqrt(gamma * s.pR / s.rhoR)
	sL := min(s.uL-cL, s.uR-cR)
	sR := max(s.uL+cL, s.uR+cR)

	if sL >= 0 {
		fL, _ := sideFlux(s.rhoL, s.uL, s.vL, s.wL, s.pL, gamma)
		fL.uStar = s.uL
		fL.upwind = 1
		return fL
	}
	if sR <= 0 {
		fR, _ := sideFlux(s.rhoR, s.uR, s.vR, s.wR, s.pR, gamma)
		fR.uStar = s.uR
		fR.upwind = -1
		return fR
	}

	num := s.pR - s.pL + s.rhoL*s.uL*(sL-s.uL) - s.rhoR*s.uR*(sR-s.uR)
	den := s.rhoL*(sL-s.uL) - s.rhoR*(sR-s.uR)
	var sStar float64
	if den != 0 {
		sStar = num / den
	}

	if sStar >= 0 {
		// Left star region.
		fL, eL := sideFlux(s.rhoL, s.uL, s.vL, s.wL, s.pL, gamma)
		rhoS := s.rhoL * (sL - s.uL) / (sL - sStar)
		f := ifaceFlux{
			mass: fL.mass + sL*(rhoS-s.rhoL),
			momU: fL.momU + sL*(rhoS*sStar-s.rhoL*s.uL),
			momV: fL.momV + sL*(rhoS*s.vL-s.rhoL*s.vL),
			momW: fL.momW + sL*(rhoS*s.wL-s.rhoL*s.wL),
		}
		eS := rhoS * (eL/s.rhoL + (sStar-s.uL)*(sStar+s.pL/(s.rhoL*(sL-s.uL))))
		f.energy = fL.energy + sL*(eS-eL)
		f.uStar = sStar
		f.upwind = 1
		return f
	}
	// Right star region.
	fR, eR := sideFlux(s.rhoR, s.uR, s.vR, s.wR, s.pR, gamma)
	rhoS := s.rhoR * (sR - s.uR) / (sR - sStar)
	f := ifaceFlux{
		mass: fR.mass + sR*(rhoS-s.rhoR),
		momU: fR.momU + sR*(rhoS*sStar-s.rhoR*s.uR),
		momV: fR.momV + sR*(rhoS*s.vR-s.rhoR*s.vR),
		momW: fR.momW + sR*(rhoS*s.wR-s.rhoR*s.wR),
	}
	eS := rhoS * (eR/s.rhoR + (sStar-s.uR)*(sStar+s.pR/(s.rhoR*(sR-s.uR))))
	f.energy = fR.energy + sR*(eS-eR)
	f.uStar = sStar
	f.upwind = -1
	return f
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
