package hydro

import (
	"math"
	"sync"
)

// This file contains the pencil-based dimensionally-split update shared by
// both solvers: gather a 1-D line of cells (with ghosts), reconstruct
// left/right interface states, solve the Riemann problem at every
// interface, apply the conservative update, and scatter back. Fluxes
// crossing the grid's outer faces are accumulated (x dt) into a
// FluxRegister for the AMR flux-correction step.

// Conserved flux component indices within a FluxRegister.
const (
	FluxMass = iota
	FluxMomX
	FluxMomY
	FluxMomZ
	FluxEnergy
	FluxNumBase // species fluxes follow
)

// FluxRegister accumulates time-integrated conserved fluxes through the six
// outer faces of a grid. Face order: x-, x+, y-, y+, z-, z+. Face f is the
// tap on sweep direction f/2 at interface 0 (low) or N (high) over the
// full transverse range, so it shares FluxTap's layout and accumulation.
type FluxRegister struct {
	NFields int
	Face    [6]*FluxTap
}

// NewFluxRegister allocates a zeroed register for a grid of the given
// active size with nspecies advected species.
func NewFluxRegister(nx, ny, nz, nspecies int) *FluxRegister {
	r := &FluxRegister{NFields: FluxNumBase + nspecies}
	n := [3]int{nx, ny, nz}
	// Transverse sizes: (j,k) for x faces, (i,k) for y faces, (i,j) for z.
	for dir, t := range [3][2]int{{ny, nz}, {nx, nz}, {nx, ny}} {
		r.Face[2*dir] = NewFluxTap(dir, 0, 0, t[0], 0, t[1], nspecies)
		r.Face[2*dir+1] = NewFluxTap(dir, n[dir], 0, t[0], 0, t[1], nspecies)
	}
	return r
}

// Zero clears all accumulated fluxes.
func (r *FluxRegister) Zero() {
	for _, t := range r.Face {
		t.Zero()
	}
}

// Solver selects the reconstruction/Riemann combination.
type Solver int

const (
	// SolverPPM is the piecewise parabolic method with an HLLC Riemann
	// solver — the primary solver of the paper.
	SolverPPM Solver = iota
	// SolverFD is the robust finite-difference alternative (ZEUS role):
	// piecewise-linear van Leer reconstruction with the very dissipative
	// Rusanov flux.
	SolverFD
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case SolverPPM:
		return "ppm"
	case SolverFD:
		return "fd"
	}
	return "unknown"
}

// pencil holds one line of primitives (with ghosts) during a sweep.
// Pencil index p corresponds to active cell p-ng; interface index f lies
// between pencil cells f-1 and f.
type pencil struct {
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

func newPencil(n, ng, nspecies int) *pencil {
	tot := n + 2*ng
	p := &pencil{
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

// pencilPools recycles pencils across sweep calls, one sync.Pool per
// pencil shape (an AMR run sweeps many non-cubic subgrids, so the three
// sweep directions alternate shapes; a single untyped pool would thrash).
// One sweep over an N³ grid used to allocate ~30 slices per call, now
// amortized to zero in steady state.
var pencilPools sync.Map // pencilKey -> *sync.Pool

type pencilKey struct{ n, ng, nspecies int }

func getPencil(n, ng, nspecies int) *pencil {
	key := pencilKey{n, ng, nspecies}
	if p, ok := pencilPools.Load(key); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return v.(*pencil)
		}
	}
	return newPencil(n, ng, nspecies)
}

func putPencil(pc *pencil) {
	key := pencilKey{pc.n, pc.ng, len(pc.species)}
	p, ok := pencilPools.Load(key)
	if !ok {
		p, _ = pencilPools.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(pc)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// reconPLM fills pc.ql/pc.qr with piecewise-linear van Leer states (the FD
// solver's reconstruction).
func (pc *pencil) reconPLM(q []float64) {
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
func (pc *pencil) reconParabola(q, cl, cr []float64) {
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

// parabolaMoments hoists the two per-cell parabola moments used by every
// avgLeft/avgRight evaluation: dq = cr-cl and q6 = 6(q - (cl+cr)/2)
// (the operands of CW84 eq. 1.12). The acoustic tracing evaluates the same
// cell's average up to six times per interface; precomputing the moments
// keeps those evaluations to a handful of flops each.
func parabolaMoments(q, cl, cr, dq, q6 []float64, tot int) {
	for i := 2; i <= tot-3; i++ {
		dq[i] = cr[i] - cl[i]
		q6[i] = 6 * (q[i] - 0.5*(cl[i]+cr[i]))
	}
}

// avgRight returns the parabola average over [1-sigma, 1] of cell i (the
// domain of dependence of a right-moving wave reaching the cell's right
// face), CW84 eq. 1.12, from precomputed moments.
func avgRight(cr, dq, q6 []float64, i int, sigma float64) float64 {
	return cr[i] - 0.5*sigma*(dq[i]-(1-2.0/3.0*sigma)*q6[i])
}

// avgLeft returns the parabola average over [0, sigma] of cell i (domain of
// dependence of a left-moving wave reaching the cell's left face).
func avgLeft(cl, dq, q6 []float64, i int, sigma float64) float64 {
	return cl[i] + 0.5*sigma*(dq[i]+(1-2.0/3.0*sigma)*q6[i])
}

func vanLeerSlope(l, c, r float64) float64 {
	dl := c - l
	dr := r - c
	if dl*dr <= 0 {
		return 0
	}
	return 2 * dl * dr / (dl + dr)
}

// mcSlope is the monotonized central-difference slope (CW84 eq. 1.8). The
// magnitude selection is the branch-free builtin min over intrinsic Abs
// (math.Min compiled to a function call on amd64; the builtin does not).
// The final sign test stays a branch: copysign(m, d) would flip the sign
// when d underflows to -0, where this form must return +m to stay
// bit-identical with the historical limiter (see TestLimiterBitwise*).
func mcSlope(l, c, r float64) float64 {
	d := 0.5 * (r - l)
	dl := 2 * (c - l)
	dr := 2 * (r - c)
	if dl*dr <= 0 {
		return 0
	}
	m := min(math.Abs(d), math.Abs(dl), math.Abs(dr))
	if d < 0 {
		return -m
	}
	return m
}

// ppmMonotonize applies the PPM parabola limiter (CW84 eq. 1.10).
func ppmMonotonize(q, lft, rgt float64) (float64, float64) {
	if (rgt-q)*(q-lft) <= 0 {
		return q, q
	}
	dq := rgt - lft
	t := dq * (q - 0.5*(lft+rgt))
	lim := dq * dq / 6
	if t > lim {
		lft = 3*q - 2*rgt
	} else if -lim > t {
		rgt = 3*q - 2*lft
	}
	return lft, rgt
}
