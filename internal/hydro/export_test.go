package hydro

// The parent revision's pencil chain — gather, reconstruct and solve,
// update, scatter, tap accumulation — and its per-cell Timestep, kept
// verbatim (free functions and the pencil type prefixed "parent") as the
// oracles TestSweepMatchesParentBitwise and TestTimestepMatchesParent hold
// the active-range, fused-kernel sweep and the row-wise CFL scan to. The parent reconstructs,
// solves and updates one ghost cell past each active face; nothing reads
// those values, so every active cell, register face and tap must agree
// bit for bit.

import "math"

// parentTimestep is Timestep's per-cell At/SoundSpeed walk.
func parentTimestep(s *State, dx float64, p Params) float64 {
	dtInv := 0.0
	for k := 0; k < s.Rho.Nz; k++ {
		for j := 0; j < s.Rho.Ny; j++ {
			for i := 0; i < s.Rho.Nx; i++ {
				c := s.SoundSpeed(i, j, k, p.Gamma)
				v := math.Abs(s.Vx.At(i, j, k)) + math.Abs(s.Vy.At(i, j, k)) + math.Abs(s.Vz.At(i, j, k))
				if r := (v + 3*c) / dx; r > dtInv {
					dtInv = r
				}
			}
		}
	}
	if dtInv == 0 {
		return math.Inf(1)
	}
	return p.CFL * 3 / dtInv
}

// parentStep3D is Step3D driving parentSweep.
func parentStep3D(s *State, dx, dt float64, p Params, solver Solver, parity int, bc func(*State), reg *FluxRegister, taps []*FluxTap) {
	dirs := [3]int{0, 1, 2}
	if parity%2 == 1 {
		dirs = [3]int{2, 1, 0}
	}
	for _, d := range dirs {
		if bc != nil {
			bc(s)
		}
		parentSweep(s, d, dx, dt, p, solver, reg, taps)
	}
	SyncDualEnergy(s, p)
}

// parentSweep is sweep's serial body over the parent chain.
func parentSweep(s *State, dir int, dx, dt float64, prm Params, solver Solver, reg *FluxRegister, taps []*FluxTap) {
	n := [3]int{s.Rho.Nx, s.Rho.Ny, s.Rho.Nz}
	n1, n2 := [3]int{n[1], n[0], n[0]}[dir], [3]int{n[2], n[2], n[1]}[dir]
	pc := newParentPencil(n[dir], s.Rho.Ng, len(s.Species))
	dtdx := dt / dx
	for line := 0; line < n1*n2; line++ {
		c1, c2 := line%n1, line/n1
		parentGatherPencil(s, dir, c1, c2, pc, prm)
		parentComputeFluxes(pc, prm, solver, dtdx)
		parentUpdatePencil(pc, prm, dtdx)
		parentScatterPencil(s, dir, c1, c2, pc)
		if reg != nil {
			parentAccumulateTaps(reg.Face[2*dir:2*dir+2], dir, c1, c2, pc, dt)
		}
		if len(taps) > 0 {
			parentAccumulateTaps(taps, dir, c1, c2, pc, dt)
		}
	}
}

// parentPencil holds one line of primitives (with ghosts) during a sweep.
// Pencil index p corresponds to active cell p-ng; interface index f lies
// between pencil cells f-1 and f.
type parentPencil struct {
	n, ng           int
	rho, u, v, w, p []float64
	eint            []float64
	et              []float64 // specific total energy (conserved carrier)
	species         [][]float64
	// interface flux arrays, length tot+1
	fMass, fMomU, fMomV, fMomW, fE []float64
	fEint                          []float64
	fSpecies                       [][]float64
	uStar                          []float64
	// reconstruction scratch
	ql, qr []float64 // per-interface left/right states
	faceV  []float64 // 4th-order face values
	slope  []float64 // per-cell monotonized central slope (shared by all faces)
	cellL  []float64 // monotonized parabola left edge per cell
	cellR  []float64 // monotonized parabola right edge per cell
	// parabola moments for the shared (per-passive-variable) scratch:
	// dq = cr-cl and q6 = 6(q - (cl+cr)/2), hoisted so the repeated
	// avgLeft/avgRight evaluations stop recomputing them per call
	cellDq, cellQ6 []float64
	// upwind domains of dependence sigma = clamp01(±u dtdx) per interface,
	// shared by every contact-riding variable
	sigR, sigL []float64
	// PPM parabolae for the acoustic variables (rho, u, p), with moments
	paRhoL, paRhoR, paRhoDq, paRhoQ6 []float64
	paUL, paUR, paUDq, paUQ6         []float64
	paPL, paPR, paPDq, paPQ6         []float64
	// per-interface reconstructed states for all variables:
	// rows 0=rho 1=u 2=v 3=w 4=p 5=eint 6..=species
	stL, stR [][]float64
}

func newParentPencil(n, ng, nspecies int) *parentPencil {
	tot := n + 2*ng
	p := &parentPencil{
		n: n, ng: ng,
		rho: make([]float64, tot), u: make([]float64, tot),
		v: make([]float64, tot), w: make([]float64, tot),
		p: make([]float64, tot), eint: make([]float64, tot),
		et:    make([]float64, tot),
		fMass: make([]float64, tot+1), fMomU: make([]float64, tot+1),
		fMomV: make([]float64, tot+1), fMomW: make([]float64, tot+1),
		fE: make([]float64, tot+1), fEint: make([]float64, tot+1),
		uStar: make([]float64, tot+1),
		ql:    make([]float64, tot+1), qr: make([]float64, tot+1),
		faceV: make([]float64, tot+1), slope: make([]float64, tot),
		cellL: make([]float64, tot), cellR: make([]float64, tot),
		cellDq: make([]float64, tot), cellQ6: make([]float64, tot),
		sigR: make([]float64, tot+1), sigL: make([]float64, tot+1),
		paRhoL: make([]float64, tot), paRhoR: make([]float64, tot),
		paRhoDq: make([]float64, tot), paRhoQ6: make([]float64, tot),
		paUL: make([]float64, tot), paUR: make([]float64, tot),
		paUDq: make([]float64, tot), paUQ6: make([]float64, tot),
		paPL: make([]float64, tot), paPR: make([]float64, tot),
		paPDq: make([]float64, tot), paPQ6: make([]float64, tot),
	}
	for s := 0; s < nspecies; s++ {
		p.species = append(p.species, make([]float64, tot))
		p.fSpecies = append(p.fSpecies, make([]float64, tot+1))
	}
	nvar := 6 + nspecies
	p.stL = make([][]float64, nvar)
	p.stR = make([][]float64, nvar)
	for v := 0; v < nvar; v++ {
		p.stL[v] = make([]float64, tot+1)
		p.stR[v] = make([]float64, tot+1)
	}
	return p
}

// reconPLM fills pc.ql/pc.qr with piecewise-linear van Leer states (the FD
// solver's reconstruction).
func (pc *parentPencil) reconPLM(q []float64) {
	tot := pc.n + 2*pc.ng
	for f := 2; f <= tot-2; f++ {
		i := f - 1
		pc.ql[f] = q[i] + 0.5*vanLeerSlope(q[i-1], q[i], q[i+1])
		pc.qr[f] = q[f] - 0.5*vanLeerSlope(q[f-1], q[f], q[f+1])
	}
}

// reconParabola computes the monotonized PPM parabola (left edge, right
// edge) for every cell of q, storing into cl/cr (CW84 steps 1-2). The
// monotonized central slope of each cell is computed once into pc.slope and
// shared by the two faces that reference it — the fused per-face form
// (ppmInterface in earlier revisions) evaluated every slope twice.
func (pc *parentPencil) reconParabola(q, cl, cr []float64) {
	tot := pc.n + 2*pc.ng
	sl := pc.slope
	for i := 1; i <= tot-2; i++ {
		sl[i] = mcSlope(q[i-1], q[i], q[i+1])
	}
	// 4th-order interface value at face f between cells f-1 and f
	// (CW84 eq. 1.6).
	fv := pc.faceV
	for f := 2; f <= tot-2; f++ {
		fv[f] = q[f-1] + 0.5*(q[f]-q[f-1]) - (sl[f]-sl[f-1])/6
	}
	for i := 2; i <= tot-3; i++ {
		cl[i], cr[i] = ppmMonotonize(q[i], fv[i], fv[i+1])
	}
}

// parentParabolaMoments hoists the two per-cell parabola moments used by every
// parentAvgLeft/avgRight evaluation: dq = cr-cl and q6 = 6(q - (cl+cr)/2)
// (the operands of CW84 eq. 1.12). The acoustic tracing evaluates the same
// cell's average up to six times per interface; precomputing the moments
// keeps those evaluations to a handful of flops each.
func parentParabolaMoments(q, cl, cr, dq, q6 []float64, tot int) {
	for i := 2; i <= tot-3; i++ {
		dq[i] = cr[i] - cl[i]
		q6[i] = 6 * (q[i] - 0.5*(cl[i]+cr[i]))
	}
}

// parentAvgRight returns the parabola average over [1-sigma, 1] of cell i (the
// domain of dependence of a right-moving wave reaching the cell's right
// face), CW84 eq. 1.12, from precomputed moments.
func parentAvgRight(cr, dq, q6 []float64, i int, sigma float64) float64 {
	return cr[i] - 0.5*sigma*(dq[i]-(1-2.0/3.0*sigma)*q6[i])
}

// parentAvgLeft returns the parabola average over [0, sigma] of cell i (domain of
// dependence of a left-moving wave reaching the cell's left face).
func parentAvgLeft(cl, dq, q6 []float64, i int, sigma float64) float64 {
	return cl[i] + 0.5*sigma*(dq[i]+(1-2.0/3.0*sigma)*q6[i])
}

// parentGatherPencil extracts a line (with ghosts) along dir at transverse
// coordinates (c1,c2). Velocity components are permuted so that u is the
// sweep-normal component. The flat base+stride walk replaces per-cell
// At() index arithmetic in this innermost hot loop.
func parentGatherPencil(s *State, dir, c1, c2 int, pc *parentPencil, par Params) {
	tot := pc.n + 2*pc.ng
	gm1 := par.Gamma - 1
	base, stride := lineBase(s.Rho, dir, c1, c2, pc.ng)
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
	for x, idx := 0, base; x < tot; x, idx = x+1, idx+stride {
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
		for x, idx := 0, base; x < tot; x, idx = x+1, idx+stride {
			dst[x] = spD[idx]
		}
	}
}

// parentComputeFluxes reconstructs interface states for every variable and runs
// the Riemann solver at each interior interface.
func parentComputeFluxes(pc *parentPencil, par Params, solver Solver, dtdx float64) {
	tot := pc.n + 2*pc.ng
	if solver == SolverFD {
		vars := [][]float64{pc.rho, pc.u, pc.v, pc.w, pc.p, pc.eint}
		vars = append(vars, pc.species...)
		for vi, q := range vars {
			pc.reconPLM(q)
			copy(pc.stL[vi], pc.ql)
			copy(pc.stR[vi], pc.qr)
		}
	} else {
		parentReconPPM(pc, par.Gamma, dtdx)
	}
	// Update the active interfaces plus enough margin that the active
	// cells all receive valid fluxes: interfaces ng-1 .. ng+n+1.
	lo, hi := pc.ng-1, pc.ng+pc.n+1
	if lo < 3 {
		lo = 3
	}
	if hi > tot-3 {
		hi = tot - 3
	}
	floorP := (par.Gamma - 1) * par.FloorRho * par.FloorEint
	// Hoist the state rows out of the per-interface loop: pc.stL[v][f]
	// costs two dependent loads per access in this innermost loop.
	stL0, stL1, stL2, stL3, stL4, stL5 := pc.stL[0], pc.stL[1], pc.stL[2], pc.stL[3], pc.stL[4], pc.stL[5]
	stR0, stR1, stR2, stR3, stR4, stR5 := pc.stR[0], pc.stR[1], pc.stR[2], pc.stR[3], pc.stR[4], pc.stR[5]
	fMass, fMomU, fMomV, fMomW := pc.fMass, pc.fMomU, pc.fMomV, pc.fMomW
	fE, fEint, uStar := pc.fE, pc.fEint, pc.uStar
	for f := lo; f <= hi; f++ {
		st := iface{
			rhoL: max(stL0[f], par.FloorRho),
			uL:   stL1[f], vL: stL2[f], wL: stL3[f],
			pL:   max(stL4[f], floorP),
			rhoR: max(stR0[f], par.FloorRho),
			uR:   stR1[f], vR: stR2[f], wR: stR3[f],
			pR: max(stR4[f], floorP),
		}
		var fl ifaceFlux
		if solver == SolverPPM {
			fl = parentHLLC(st, par.Gamma)
		} else {
			fl = parentRusanov(st, par.Gamma)
		}
		fMass[f] = fl.mass
		fMomU[f] = fl.momU
		fMomV[f] = fl.momV
		fMomW[f] = fl.momW
		fE[f] = fl.energy
		uStar[f] = fl.uStar
		// Passive scalars ride the mass flux, upwinded at the contact.
		eintUp := stL5[f]
		if fl.upwind < 0 {
			eintUp = stR5[f]
		}
		fEint[f] = fl.mass * eintUp
		for sp := range pc.fSpecies {
			// Species are advected as mass fractions q = rho_s/rho.
			qL := pc.stL[6+sp][f] / max(stL0[f], par.FloorRho)
			qR := pc.stR[6+sp][f] / max(stR0[f], par.FloorRho)
			q := qL
			if fl.upwind < 0 {
				q = qR
			}
			pc.fSpecies[sp][f] = fl.mass * q
		}
	}
}

// parentReconPPM computes PPM interface states with full characteristic tracing
// (CW84 §3): the acoustic variables (rho, u, p) are traced along the three
// wave families using the primitive-variable eigenvectors, while the
// transverse velocities, internal energy and species ride the contact and
// are averaged over the u-characteristic's domain of dependence. This is
// what gives PPM its sharp contacts relative to the FD solver.
func parentReconPPM(pc *parentPencil, gamma, dtdx float64) {
	tot := pc.n + 2*pc.ng
	pc.reconParabola(pc.rho, pc.paRhoL, pc.paRhoR)
	parentParabolaMoments(pc.rho, pc.paRhoL, pc.paRhoR, pc.paRhoDq, pc.paRhoQ6, tot)
	pc.reconParabola(pc.u, pc.paUL, pc.paUR)
	parentParabolaMoments(pc.u, pc.paUL, pc.paUR, pc.paUDq, pc.paUQ6, tot)
	pc.reconParabola(pc.p, pc.paPL, pc.paPR)
	parentParabolaMoments(pc.p, pc.paPL, pc.paPR, pc.paPDq, pc.paPQ6, tot)

	// Upwind domains of dependence at each interface, shared by every
	// contact-riding variable (the per-variable loop below used to
	// recompute both clamps for each of its 3+nspecies passes).
	uD, sigR, sigL := pc.u, pc.sigR, pc.sigL
	for f := 3; f <= tot-3; f++ {
		sigR[f] = clamp01(uD[f-1] * dtdx)
		sigL[f] = clamp01(-uD[f] * dtdx)
	}

	// Passive (contact-riding) variables: rows 2 (v), 3 (w), 5 (eint),
	// 6.. (species).
	pc.passiveRecon(pc.v, 2, tot)
	pc.passiveRecon(pc.w, 3, tot)
	pc.passiveRecon(pc.eint, 5, tot)
	for sp := range pc.species {
		pc.passiveRecon(pc.species[sp], 6+sp, tot)
	}

	// Acoustic variables with characteristic projection.
	rhoD, pD := pc.rho, pc.p
	rcl, rcr, rdq, rq6 := pc.paRhoL, pc.paRhoR, pc.paRhoDq, pc.paRhoQ6
	ucl, ucr, udq, uq6 := pc.paUL, pc.paUR, pc.paUDq, pc.paUQ6
	pcl, pcr, pdq, pq6 := pc.paPL, pc.paPR, pc.paPDq, pc.paPQ6
	stL0, stL1, stL4 := pc.stL[0], pc.stL[1], pc.stL[4]
	stR0, stR1, stR4 := pc.stR[0], pc.stR[1], pc.stR[4]
	for f := 3; f <= tot-3; f++ {
		// ---- Left state: right-moving waves out of cell f-1.
		i := f - 1
		rhoI, uI, pI := rhoD[i], uD[i], pD[i]
		cI := math.Sqrt(gamma * pI / rhoI)
		lamP, lamZ, lamM := uI+cI, uI, uI-cI
		sRef := clamp01(lamP * dtdx)
		refRho := parentAvgRight(rcr, rdq, rq6, i, sRef)
		refU := parentAvgRight(ucr, udq, uq6, i, sRef)
		refP := parentAvgRight(pcr, pdq, pq6, i, sRef)
		rhoL, uL, pL := refRho, refU, refP
		// The + family coincides with the reference state (beta+ = 0).
		if lamZ > 0 {
			s := clamp01(lamZ * dtdx)
			r0 := parentAvgRight(rcr, rdq, rq6, i, s)
			p0 := parentAvgRight(pcr, pdq, pq6, i, s)
			beta0 := (refRho - r0) - (refP-p0)/(cI*cI)
			rhoL -= beta0
		}
		if lamM > 0 {
			s := clamp01(lamM * dtdx)
			uM := parentAvgRight(ucr, udq, uq6, i, s)
			pM := parentAvgRight(pcr, pdq, pq6, i, s)
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
		refRho = parentAvgLeft(rcl, rdq, rq6, i, sRef)
		refU = parentAvgLeft(ucl, udq, uq6, i, sRef)
		refP = parentAvgLeft(pcl, pdq, pq6, i, sRef)
		rhoR, uR, pR := refRho, refU, refP
		// The - family coincides with the reference state (beta- = 0).
		if lamZ < 0 {
			s := clamp01(-lamZ * dtdx)
			r0 := parentAvgLeft(rcl, rdq, rq6, i, s)
			p0 := parentAvgLeft(pcl, pdq, pq6, i, s)
			beta0 := (refRho - r0) - (refP-p0)/(cI*cI)
			rhoR -= beta0
		}
		if lamP < 0 {
			s := clamp01(-lamP * dtdx)
			uP := parentAvgLeft(ucl, udq, uq6, i, s)
			pP := parentAvgLeft(pcl, pdq, pq6, i, s)
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

// passiveRecon reconstructs one contact-riding variable into state row
// `row`: the monotonized parabola is built once, its moments hoisted, and
// the per-interface averages use the shared sigR/sigL upwind domains.
func (pc *parentPencil) passiveRecon(q []float64, row, tot int) {
	pc.reconParabola(q, pc.cellL, pc.cellR)
	parentParabolaMoments(q, pc.cellL, pc.cellR, pc.cellDq, pc.cellQ6, tot)
	cl, cr, dq, q6 := pc.cellL, pc.cellR, pc.cellDq, pc.cellQ6
	sigR, sigL := pc.sigR, pc.sigL
	dstL, dstR := pc.stL[row], pc.stR[row]
	for f := 3; f <= tot-3; f++ {
		dstL[f] = parentAvgRight(cr, dq, q6, f-1, sigR[f])
		dstR[f] = parentAvgLeft(cl, dq, q6, f, sigL[f])
	}
}

// parentUpdatePencil applies the conservative update to the active cells of the
// parentPencil (plus one ghost layer margin so subsequent sweeps have partially
// updated data near boundaries — the standard split-scheme practice is to
// update as wide a band as valid fluxes allow).
func parentUpdatePencil(pc *parentPencil, par Params, dtdx float64) {
	lo := pc.ng - 1
	hi := pc.ng + pc.n // inclusive of one ghost on each side
	if lo < 3 {
		lo = 3
	}
	tot := pc.n + 2*pc.ng
	if hi > tot-4 {
		hi = tot - 4
	}
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

// parentScatterPencil writes the updated pencil back to the grid (active cells
// plus one ghost layer on each side, which holds partially updated data
// for the subsequent sweeps of the split scheme).
func parentScatterPencil(s *State, dir, c1, c2 int, pc *parentPencil) {
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
	// Pencil index x = a+ng covers a in [-1, n]; flat index follows.
	x0 := pc.ng - 1
	for x, idx := x0, base+x0*stride; x <= pc.ng+pc.n; x, idx = x+1, idx+stride {
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
		for x, idx := x0, base+x0*stride; x <= pc.ng+pc.n; x, idx = x+1, idx+stride {
			spD[idx] = src[x]
		}
	}
}

// parentHLLC solves the Riemann problem with the HLLC approximate solver
// (Toro 1994), which restores the contact wave missing from HLL and is the
// standard pairing for PPM-class schemes.
func parentHLLC(s iface, gamma float64) ifaceFlux {
	cL := math.Sqrt(gamma * s.pL / s.rhoL)
	cR := math.Sqrt(gamma * s.pR / s.rhoR)
	sL := min(s.uL-cL, s.uR-cR)
	sR := max(s.uL+cL, s.uR+cR)

	eL := s.pL/(gamma-1) + 0.5*s.rhoL*(s.uL*s.uL+s.vL*s.vL+s.wL*s.wL)
	eR := s.pR/(gamma-1) + 0.5*s.rhoR*(s.uR*s.uR+s.vR*s.vR+s.wR*s.wR)

	fL := eulerFlux(s.rhoL, s.uL, s.vL, s.wL, s.pL, eL)
	fR := eulerFlux(s.rhoR, s.uR, s.vR, s.wR, s.pR, eR)

	if sL >= 0 {
		fL.uStar = s.uL
		fL.upwind = 1
		return fL
	}
	if sR <= 0 {
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

// parentRusanov is the local Lax-Friedrichs flux: maximally dissipative but
// positivity-preserving — the "robust" half of the paper's solver pair.
func parentRusanov(s iface, gamma float64) ifaceFlux {
	cL := math.Sqrt(gamma * s.pL / s.rhoL)
	cR := math.Sqrt(gamma * s.pR / s.rhoR)
	smax := max(math.Abs(s.uL)+cL, math.Abs(s.uR)+cR)

	eL := s.pL/(gamma-1) + 0.5*s.rhoL*(s.uL*s.uL+s.vL*s.vL+s.wL*s.wL)
	eR := s.pR/(gamma-1) + 0.5*s.rhoR*(s.uR*s.uR+s.vR*s.vR+s.wR*s.wR)
	fL := eulerFlux(s.rhoL, s.uL, s.vL, s.wL, s.pL, eL)
	fR := eulerFlux(s.rhoR, s.uR, s.vR, s.wR, s.pR, eR)

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

// parentAccumulateTaps adds dt-weighted fluxes from one pencil into any taps on
// this sweep direction whose transverse range covers the pencil.
func parentAccumulateTaps(taps []*FluxTap, dir, c1, c2 int, pc *parentPencil, dt float64) {
	for _, t := range taps {
		if t.Dir != dir || c1 < t.Lo1 || c1 >= t.Hi1 || c2 < t.Lo2 || c2 >= t.Hi2 {
			continue
		}
		f := t.FaceIdx + pc.ng
		idx := (c1 - t.Lo1) + (t.Hi1-t.Lo1)*(c2-t.Lo2)
		t.Data[FluxMass][idx] += dt * pc.fMass[f]
		var mx, my, mz float64
		switch dir {
		case 0:
			mx, my, mz = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		case 1:
			my, mz, mx = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		case 2:
			mz, mx, my = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		}
		t.Data[FluxMomX][idx] += dt * mx
		t.Data[FluxMomY][idx] += dt * my
		t.Data[FluxMomZ][idx] += dt * mz
		t.Data[FluxEnergy][idx] += dt * pc.fE[f]
		for sp := range pc.fSpecies {
			t.Data[FluxNumBase+sp][idx] += dt * pc.fSpecies[sp][f]
		}
	}
}
