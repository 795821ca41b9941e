package hydro

import (
	"math"
	"sync"
)

// This file contains the pencil-based dimensionally-split update shared by
// both solvers: gather a 1-D line of cells (with the ghosts the stencil
// reaches), reconstruct left/right interface states, solve the Riemann
// problem at every active interface, apply the conservative update to the
// active cells, and scatter them back. Fluxes
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
// between pencil cells f-1 and f. A sweep computes only what the active
// cells read: interfaces ng..ng+n, the parabolae of cells ng-1..ng+n on
// either side of them, and the primitives of cells ng-reach..ng+n-1+reach
// those parabolae are built from.
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
	// upwind domains of dependence sigma = clamp01(±u dtdx) per interface,
	// shared by every contact-riding variable
	sigR, sigL []float64
	// PPM parabolae for the acoustic variables (rho, u, p): edges and the
	// moments dq = cr-cl, q6 = 6(q - (cl+cr)/2), which the characteristic
	// tracing reads up to six times per interface
	paRhoL, paRhoR, paRhoDq, paRhoQ6 []float64
	paUL, paUR, paUDq, paUQ6         []float64
	paPL, paPR, paPDq, paPQ6         []float64
	// per-interface reconstructed states for all variables:
	// rows 0=rho 1=u 2=v 3=w 4=p 5=eint 6..=species
	stL, stR [][]float64
}

// reach is how many cells past each active end a pencil reads: the
// slopes of cells ng-2..ng+n+1 behind the outermost parabolae each look
// one cell further (the PLM path reads one cell less).
const reach = 3

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
		sigR:  make([]float64, tot+1), sigL: make([]float64, tot+1),
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

// reconPLM writes piecewise-linear van Leer states (the FD solver's
// reconstruction) of q into state row `row` at the active interfaces.
func (pc *pencil) reconPLM(q []float64, row int) {
	ql, qr := pc.stL[row], pc.stR[row]
	for f := pc.ng; f <= pc.ng+pc.n; f++ {
		i := f - 1
		ql[f] = q[i] + 0.5*vanLeerSlope(q[i-1], q[i], q[i+1])
		qr[f] = q[f] - 0.5*vanLeerSlope(q[f-1], q[f], q[f+1])
	}
}

// parabolae builds the monotonized PPM parabola (CW84 steps 1-2) of every
// cell the active interfaces read, ng-1..ng+n, in one pass over q: the
// monotonized central slope of the cell ahead, the 4th-order value of the
// face between (CW84 eq. 1.6), then the limiter. Slope and face value roll
// forward, so each is computed once and shared by the two cells or faces
// that use it. Edges go to cl/cr, the moments dq/q6 beside them.
func (pc *pencil) parabolae(q, cl, cr, dq, q6 []float64) {
	lo, hi := pc.ng-1, pc.ng+pc.n
	slPrev := mcSlope(q[lo-2], q[lo-1], q[lo])
	sl := mcSlope(q[lo-1], q[lo], q[lo+1])
	fvL := q[lo-1] + 0.5*(q[lo]-q[lo-1]) - (sl-slPrev)/6
	for i := lo; i <= hi; i++ {
		slR := mcSlope(q[i], q[i+1], q[i+2])
		fvR := q[i] + 0.5*(q[i+1]-q[i]) - (slR-sl)/6
		l, r := ppmMonotonize(q[i], fvL, fvR)
		cl[i], cr[i] = l, r
		dq[i] = r - l
		q6[i] = 6 * (q[i] - 0.5*(l+r))
		sl, fvL = slR, fvR
	}
}

// passiveRecon reconstructs one contact-riding variable into state row
// `row` in the same single pass as parabolae, writing each cell's upwind
// averages straight into the states of the two interfaces it borders
// (cell ng-1 feeds only interface ng, cell ng+n only interface ng+n).
func (pc *pencil) passiveRecon(q []float64, row int) {
	lo, hi := pc.ng-1, pc.ng+pc.n
	sigR, sigL := pc.sigR, pc.sigL
	dstL, dstR := pc.stL[row], pc.stR[row]
	slPrev := mcSlope(q[lo-2], q[lo-1], q[lo])
	sl := mcSlope(q[lo-1], q[lo], q[lo+1])
	fvL := q[lo-1] + 0.5*(q[lo]-q[lo-1]) - (sl-slPrev)/6
	for i := lo; i <= hi; i++ {
		slR := mcSlope(q[i], q[i+1], q[i+2])
		fvR := q[i] + 0.5*(q[i+1]-q[i]) - (slR-sl)/6
		l, r := ppmMonotonize(q[i], fvL, fvR)
		dq := r - l
		q6 := 6 * (q[i] - 0.5*(l+r))
		if i > lo {
			dstR[i] = avgLeft(l, dq, q6, sigL[i])
		}
		if i < hi {
			dstL[i+1] = avgRight(r, dq, q6, sigR[i+1])
		}
		sl, fvL = slR, fvR
	}
}

// avgRight returns the parabola average over [1-sigma, 1] of a cell with
// right edge cr and moments dq, q6 (the domain of dependence of a
// right-moving wave reaching the cell's right face), CW84 eq. 1.12.
func avgRight(cr, dq, q6, sigma float64) float64 {
	return cr - 0.5*sigma*(dq-(1-2.0/3.0*sigma)*q6)
}

// avgLeft returns the parabola average over [0, sigma] of a cell with
// left edge cl (domain of dependence of a left-moving wave reaching the
// cell's left face).
func avgLeft(cl, dq, q6, sigma float64) float64 {
	return cl + 0.5*sigma*(dq+(1-2.0/3.0*sigma)*q6)
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
