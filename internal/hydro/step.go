package hydro

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// Step3D advances the state by dt on a grid with cell width dx using
// dimensional Strang splitting. The sweep order alternates (xyz / zyx) with
// the parity argument to cancel splitting errors over step pairs, as in the
// original implementation. If bc is non-nil it is called before each sweep
// to refresh ghost zones (the root grid and uniform-grid callers pass
// periodic or outflow fills). The AMR layer passes nil for subgrids: their
// ghosts, filled from parent and siblings before the step, are inputs for
// the whole sweep set. Each sweep updates active cells only, so ghosts
// leave Step3D as they came in. If reg is non-nil, the
// time-integrated conserved fluxes through the grid's outer faces are
// accumulated into it for later flux correction; taps capture interior
// fluxes at child-boundary planes.
func Step3D(s *State, dx, dt float64, p Params, solver Solver, parity int, bc func(*State), reg *FluxRegister, taps []*FluxTap) {
	dirs := [3]int{0, 1, 2}
	if parity%2 == 1 {
		dirs = [3]int{2, 1, 0}
	}
	for _, d := range dirs {
		if bc != nil {
			bc(s)
		}
		sweep(s, d, dx, dt, p, solver, reg, taps)
	}
	SyncDualEnergy(s, p)
}

// sweep performs one directional pass over the whole grid. Pencils are
// independent 1-D problems over disjoint lines (gather, fluxes, update and
// scatter all stay within one transverse coordinate, and register/tap
// accumulation targets per-line entries), so the parallel pass is bitwise
// identical to the serial one at any worker count.
func sweep(s *State, dir int, dx, dt float64, prm Params, solver Solver, reg *FluxRegister, taps []*FluxTap) {
	var n, n1, n2 int
	switch dir {
	case 0:
		n, n1, n2 = s.Rho.Nx, s.Rho.Ny, s.Rho.Nz
	case 1:
		n, n1, n2 = s.Rho.Ny, s.Rho.Nx, s.Rho.Nz
	case 2:
		n, n1, n2 = s.Rho.Nz, s.Rho.Nx, s.Rho.Ny
	}
	ng := s.Rho.Ng
	nsp := len(s.Species)
	dtdx := dt / dx

	// One chunk per transverse plane keeps scatter writes cache-friendly.
	par.For(prm.Workers, n1*n2, n1, func(_, lo, hi int) {
		pc := getPencil(n, ng, nsp)
		defer putPencil(pc)
		for line := lo; line < hi; line++ {
			c1 := line % n1
			c2 := line / n1
			gatherPencil(s, dir, c1, c2, pc, prm)
			computeFluxes(pc, prm, solver, dtdx)
			updatePencil(pc, prm, dtdx)
			scatterPencil(s, dir, c1, c2, pc)
			if reg != nil {
				accumulateTaps(reg.Face[2*dir:2*dir+2], dir, c1, c2, pc, dt)
			}
			if len(taps) > 0 {
				accumulateTaps(taps, dir, c1, c2, pc, dt)
			}
		}
	})
}

// lineBase returns the flat index of pencil cell a=-ng and the flat stride
// along the sweep direction for a line at transverse coordinates (c1,c2).
// All fields of a State share one shape, so the pair applies to each.
func lineBase(f *mesh.Field3, dir, c1, c2, ng int) (base, stride int) {
	switch dir {
	case 0:
		return f.Idx(-ng, c1, c2), f.StrideX()
	case 1:
		return f.Idx(c1, -ng, c2), f.StrideY()
	default:
		return f.Idx(c1, c2, -ng), f.StrideZ()
	}
}

// gatherPencil extracts the cells of a line along dir at transverse
// coordinates (c1,c2) that the sweep reads: the active cells and reach
// ghosts on each side. Velocity components are permuted so that u is the
// sweep-normal component. The flat base+stride walk replaces per-cell
// At() index arithmetic in this innermost hot loop.
func gatherPencil(s *State, dir, c1, c2 int, pc *pencil, par Params) {
	x0, x1 := pc.ng-reach, pc.ng+pc.n+reach
	gm1 := par.Gamma - 1
	base, stride := lineBase(s.Rho, dir, c1, c2, pc.ng)
	base += x0 * stride
	// Permute velocity fields so vu is the sweep-normal component.
	var vu, vv, vw []float64
	switch dir {
	case 0:
		vu, vv, vw = s.Vx.Data, s.Vy.Data, s.Vz.Data
	case 1:
		vu, vv, vw = s.Vy.Data, s.Vz.Data, s.Vx.Data
	case 2:
		vu, vv, vw = s.Vz.Data, s.Vx.Data, s.Vy.Data
	}
	rhoD, eintD, etotD := s.Rho.Data, s.Eint.Data, s.Etot.Data
	dRho, dEint, dEt, dP := pc.rho, pc.eint, pc.et, pc.p
	dU, dV, dW := pc.u, pc.v, pc.w
	for x, idx := x0, base; x < x1; x, idx = x+1, idx+stride {
		rho := max(rhoD[idx], par.FloorRho)
		ei := max(eintD[idx], par.FloorEint)
		dRho[x] = rho
		dEint[x] = ei
		dEt[x] = etotD[idx]
		dP[x] = gm1 * rho * ei
		dU[x] = vu[idx]
		dV[x] = vv[idx]
		dW[x] = vw[idx]
	}
	for sp := range s.Species {
		spD := s.Species[sp].Data
		dst := pc.species[sp]
		for x, idx := x0, base; x < x1; x, idx = x+1, idx+stride {
			dst[x] = spD[idx]
		}
	}
}

// computeFluxes reconstructs interface states for every variable and
// solves the Riemann problem at each active interface, ng..ng+n: the PPM
// solver through hllcPencil, one call per pencil; the FD solver through
// the per-interface Rusanov flux. Both upwind the passives by the same
// rule (upwindPassives).
func computeFluxes(pc *pencil, par Params, solver Solver, dtdx float64) {
	lo, hi := pc.ng, pc.ng+pc.n
	if solver != SolverFD {
		reconPPM(pc, par.Gamma, dtdx)
		hllcPencil(pc, lo, hi, par)
		return
	}
	for vi, q := range [6][]float64{pc.rho, pc.u, pc.v, pc.w, pc.p, pc.eint} {
		pc.reconPLM(q, vi)
	}
	for sp, q := range pc.species {
		pc.reconPLM(q, 6+sp)
	}
	floorP := (par.Gamma - 1) * par.FloorRho * par.FloorEint
	// Hoist the state rows out of the per-interface loop: pc.stL[v][f]
	// costs two dependent loads per access in this innermost loop.
	stL0, stL1, stL2, stL3, stL4 := pc.stL[0], pc.stL[1], pc.stL[2], pc.stL[3], pc.stL[4]
	stR0, stR1, stR2, stR3, stR4 := pc.stR[0], pc.stR[1], pc.stR[2], pc.stR[3], pc.stR[4]
	fMass, fMomU, fMomV, fMomW := pc.fMass, pc.fMomU, pc.fMomV, pc.fMomW
	fE, uStar := pc.fE, pc.uStar
	for f := lo; f <= hi; f++ {
		st := iface{
			rhoL: max(stL0[f], par.FloorRho),
			uL:   stL1[f], vL: stL2[f], wL: stL3[f],
			pL:   max(stL4[f], floorP),
			rhoR: max(stR0[f], par.FloorRho),
			uR:   stR1[f], vR: stR2[f], wR: stR3[f],
			pR: max(stR4[f], floorP),
		}
		fl := rusanov(st, par.Gamma)
		fMass[f] = fl.mass
		fMomU[f] = fl.momU
		fMomV[f] = fl.momV
		fMomW[f] = fl.momW
		fE[f] = fl.energy
		uStar[f] = fl.uStar
		rho, right := st.rhoL, fl.upwind < 0
		if right {
			rho = st.rhoR
		}
		pc.upwindPassives(f, fl.mass, rho, right)
	}
}

// reconPPM computes PPM interface states with full characteristic tracing
// (CW84 §3): the acoustic variables (rho, u, p) are traced along the three
// wave families using the primitive-variable eigenvectors, while the
// transverse velocities, internal energy and species ride the contact and
// are averaged over the u-characteristic's domain of dependence. This is
// what gives PPM its sharp contacts relative to the FD solver.
func reconPPM(pc *pencil, gamma, dtdx float64) {
	lo, hi := pc.ng, pc.ng+pc.n
	pc.parabolae(pc.rho, pc.paRhoL, pc.paRhoR, pc.paRhoDq, pc.paRhoQ6)
	pc.parabolae(pc.u, pc.paUL, pc.paUR, pc.paUDq, pc.paUQ6)
	pc.parabolae(pc.p, pc.paPL, pc.paPR, pc.paPDq, pc.paPQ6)

	// Upwind domains of dependence at each interface, shared by every
	// contact-riding variable (the per-variable loop below used to
	// recompute both clamps for each of its 3+nspecies passes).
	uD, sigR, sigL := pc.u, pc.sigR, pc.sigL
	for f := lo; f <= hi; f++ {
		sigR[f] = clamp01(uD[f-1] * dtdx)
		sigL[f] = clamp01(-uD[f] * dtdx)
	}

	// Passive (contact-riding) variables: rows 2 (v), 3 (w), 5 (eint),
	// 6.. (species).
	pc.passiveRecon(pc.v, 2)
	pc.passiveRecon(pc.w, 3)
	pc.passiveRecon(pc.eint, 5)
	for sp := range pc.species {
		pc.passiveRecon(pc.species[sp], 6+sp)
	}

	// Acoustic variables with characteristic projection.
	rhoD, pD := pc.rho, pc.p
	rcl, rcr, rdq, rq6 := pc.paRhoL, pc.paRhoR, pc.paRhoDq, pc.paRhoQ6
	ucl, ucr, udq, uq6 := pc.paUL, pc.paUR, pc.paUDq, pc.paUQ6
	pcl, pcr, pdq, pq6 := pc.paPL, pc.paPR, pc.paPDq, pc.paPQ6
	stL0, stL1, stL4 := pc.stL[0], pc.stL[1], pc.stL[4]
	stR0, stR1, stR4 := pc.stR[0], pc.stR[1], pc.stR[4]
	for f := lo; f <= hi; f++ {
		// ---- Left state: right-moving waves out of cell f-1.
		i := f - 1
		rhoI, uI, pI := rhoD[i], uD[i], pD[i]
		cI := math.Sqrt(gamma * pI / rhoI)
		lamP, lamZ, lamM := uI+cI, uI, uI-cI
		sRef := clamp01(lamP * dtdx)
		refRho := avgRight(rcr[i], rdq[i], rq6[i], sRef)
		refU := avgRight(ucr[i], udq[i], uq6[i], sRef)
		refP := avgRight(pcr[i], pdq[i], pq6[i], sRef)
		rhoL, uL, pL := refRho, refU, refP
		// The + family coincides with the reference state (beta+ = 0).
		if lamZ > 0 {
			s := clamp01(lamZ * dtdx)
			r0 := avgRight(rcr[i], rdq[i], rq6[i], s)
			p0 := avgRight(pcr[i], pdq[i], pq6[i], s)
			beta0 := (refRho - r0) - (refP-p0)/(cI*cI)
			rhoL -= beta0
		}
		if lamM > 0 {
			s := clamp01(lamM * dtdx)
			uM := avgRight(ucr[i], udq[i], uq6[i], s)
			pM := avgRight(pcr[i], pdq[i], pq6[i], s)
			betaM := -rhoI/(2*cI)*(refU-uM) + (refP-pM)/(2*cI*cI)
			rhoL -= betaM
			uL += betaM * cI / rhoI
			pL -= betaM * cI * cI
		}
		stL0[f] = rhoL
		stL1[f] = uL
		stL4[f] = pL

		// ---- Right state: left-moving waves out of cell f.
		i = f
		rhoI, uI, pI = rhoD[i], uD[i], pD[i]
		cI = math.Sqrt(gamma * pI / rhoI)
		lamP, lamZ, lamM = uI+cI, uI, uI-cI
		sRef = clamp01(-lamM * dtdx)
		refRho = avgLeft(rcl[i], rdq[i], rq6[i], sRef)
		refU = avgLeft(ucl[i], udq[i], uq6[i], sRef)
		refP = avgLeft(pcl[i], pdq[i], pq6[i], sRef)
		rhoR, uR, pR := refRho, refU, refP
		// The - family coincides with the reference state (beta- = 0).
		if lamZ < 0 {
			s := clamp01(-lamZ * dtdx)
			r0 := avgLeft(rcl[i], rdq[i], rq6[i], s)
			p0 := avgLeft(pcl[i], pdq[i], pq6[i], s)
			beta0 := (refRho - r0) - (refP-p0)/(cI*cI)
			rhoR -= beta0
		}
		if lamP < 0 {
			s := clamp01(-lamP * dtdx)
			uP := avgLeft(ucl[i], udq[i], uq6[i], s)
			pP := avgLeft(pcl[i], pdq[i], pq6[i], s)
			betaP := rhoI/(2*cI)*(refU-uP) + (refP-pP)/(2*cI*cI)
			rhoR -= betaP
			uR -= betaP * cI / rhoI
			pR -= betaP * cI * cI
		}
		stR0[f] = rhoR
		stR1[f] = uR
		stR4[f] = pR
	}
}

// updatePencil applies the conservative update to the active cells of the
// pencil. Ghost cells are left alone: a later sweep of the same step reads
// only lines through active cells, never this line's ghosts, and the next
// boundary fill rewrites every ghost.
func updatePencil(pc *pencil, par Params, dtdx float64) {
	lo, hi := pc.ng, pc.ng+pc.n-1
	rhoA, uA, vA, wA := pc.rho, pc.u, pc.v, pc.w
	etA, eintA, pA := pc.et, pc.eint, pc.p
	fMass, fMomU, fMomV, fMomW := pc.fMass, pc.fMomU, pc.fMomV, pc.fMomW
	fE, fEint, uStar := pc.fE, pc.fEint, pc.uStar
	// Species are write-disjoint from the base update; walking each
	// species array in its own contiguous pass beats interleaving the
	// accesses inside the base cell loop.
	for sp := range pc.species {
		qs, fs := pc.species[sp], pc.fSpecies[sp]
		for i := lo; i <= hi; i++ {
			rs := qs[i] - dtdx*(fs[i+1]-fs[i])
			if rs < 0 {
				rs = 0
			}
			qs[i] = rs
		}
	}
	for i := lo; i <= hi; i++ {
		rho := rhoA[i]
		// Conserved quantities.
		mU := rho * uA[i]
		mV := rho * vA[i]
		mW := rho * wA[i]
		e := rho * etA[i]
		rhoEint := rho * eintA[i]

		nrho := max(rho-dtdx*(fMass[i+1]-fMass[i]), par.FloorRho)
		mU -= dtdx * (fMomU[i+1] - fMomU[i])
		mV -= dtdx * (fMomV[i+1] - fMomV[i])
		mW -= dtdx * (fMomW[i+1] - fMomW[i])
		e -= dtdx * (fE[i+1] - fE[i])
		// Dual internal energy: conservative advection + pdV work with
		// interface velocities.
		rhoEint -= dtdx * (fEint[i+1] - fEint[i])
		rhoEint -= dtdx * pA[i] * (uStar[i+1] - uStar[i])

		rhoA[i] = nrho
		uA[i] = mU / nrho
		vA[i] = mV / nrho
		wA[i] = mW / nrho
		// eint carries the dual internal energy; SyncDualEnergy
		// reconciles it with the conserved total energy after the
		// full 3-D step.
		eintA[i] = max(rhoEint/nrho, par.FloorEint)
		etA[i] = e / nrho
	}
}

// scatterPencil writes the updated active cells of the pencil back to the
// grid.
func scatterPencil(s *State, dir, c1, c2 int, pc *pencil) {
	base, stride := lineBase(s.Rho, dir, c1, c2, pc.ng)
	var vu, vv, vw []float64
	switch dir {
	case 0:
		vu, vv, vw = s.Vx.Data, s.Vy.Data, s.Vz.Data
	case 1:
		vu, vv, vw = s.Vy.Data, s.Vz.Data, s.Vx.Data
	case 2:
		vu, vv, vw = s.Vz.Data, s.Vx.Data, s.Vy.Data
	}
	rhoD, eintD, etotD := s.Rho.Data, s.Eint.Data, s.Etot.Data
	// Pencil index x = a+ng covers a in [0, n); flat index follows.
	x0, x1 := pc.ng, pc.ng+pc.n
	for x, idx := x0, base+x0*stride; x < x1; x, idx = x+1, idx+stride {
		rhoD[idx] = pc.rho[x]
		vu[idx] = pc.u[x]
		vv[idx] = pc.v[x]
		vw[idx] = pc.w[x]
		etotD[idx] = pc.et[x]
		eintD[idx] = pc.eint[x]
	}
	for sp := range s.Species {
		spD := s.Species[sp].Data
		src := pc.species[sp]
		for x, idx := x0, base+x0*stride; x < x1; x, idx = x+1, idx+stride {
			spD[idx] = src[x]
		}
	}
}
