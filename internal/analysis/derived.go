package analysis

// Derived-quantity routines of §6: "They range from computing direct
// hydrodynamical quantities, such as temperatures and densities, to
// derived quantities like cooling times, two-body relaxation times, X-ray
// luminosities and inertial tensors. To study flattened objects ...
// versatile routines to find such objects and derive projections, surface
// densities and other useful diagnostic quantities."

import (
	"math"
	"sort"

	"repro/internal/amr"
	"repro/internal/chem"
	"repro/internal/units"
)

// CoolingTime returns the cooling time [s] of one cell of a chemistry run:
// thermal energy density over the net radiative loss rate. Infinite when
// the cell is heating or not cooling.
func CoolingTime(h *amr.Hierarchy, g *amr.Grid, i, j, k int) float64 {
	u := h.Cfg.Units
	aFac := 1.0
	if h.Cfg.Cosmo != nil && h.Cfg.InitialA > 0 {
		r := h.Cfg.InitialA / h.Cfg.Cosmo.A
		aFac = r * r * r
	}
	var cs chem.State
	for sp := 0; sp < chem.NumSpecies && sp < len(g.State.Species); sp++ {
		w := chem.AtomicWeight[sp]
		if w == 0 {
			w = 1
		}
		cs[sp] = g.State.Species[sp].At(i, j, k) * u.Density * aFac / (w * units.MProton)
	}
	eint := g.State.Eint.At(i, j, k) * u.Velocity * u.Velocity // erg/g
	rhoCGS := cs.MassDensity() * units.MProton
	T := chem.Temperature(cs, eint, h.Cfg.Hydro.Gamma)
	lam := chem.NetCooling(cs, T, chem.RatesAt(T), h.Cfg.CoolParams)
	if lam <= 0 {
		return math.Inf(1)
	}
	return eint * rhoCGS / lam
}

// DynamicalTime returns the local free-fall time [s]:
// sqrt(3π / (32 G ρ_total)), with densities converted to CGS.
func DynamicalTime(h *amr.Hierarchy, g *amr.Grid, i, j, k int) float64 {
	u := h.Cfg.Units
	aFac := 1.0
	if h.Cfg.Cosmo != nil && h.Cfg.InitialA > 0 {
		r := h.Cfg.InitialA / h.Cfg.Cosmo.A
		aFac = r * r * r
	}
	rho := (g.State.Rho.At(i, j, k) + g.DMRho.At(i, j, k)) * u.Density * aFac
	if rho <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(3 * math.Pi / (32 * units.G * rho))
}

// XRayEmissivity returns the thermal bremsstrahlung emissivity
// [erg cm⁻³ s⁻¹] of a chemistry cell (the §6 X-ray luminosity field).
func XRayEmissivity(h *amr.Hierarchy, g *amr.Grid, i, j, k int) float64 {
	u := h.Cfg.Units
	aFac := 1.0
	if h.Cfg.Cosmo != nil && h.Cfg.InitialA > 0 {
		r := h.Cfg.InitialA / h.Cfg.Cosmo.A
		aFac = r * r * r
	}
	var cs chem.State
	for sp := 0; sp < chem.NumSpecies && sp < len(g.State.Species); sp++ {
		w := chem.AtomicWeight[sp]
		if w == 0 {
			w = 1
		}
		cs[sp] = g.State.Species[sp].At(i, j, k) * u.Density * aFac / (w * units.MProton)
	}
	eint := g.State.Eint.At(i, j, k) * u.Velocity * u.Velocity
	T := chem.Temperature(cs, eint, h.Cfg.Hydro.Gamma)
	return 1.42e-27 * 1.3 * math.Sqrt(T) *
		(cs[chem.HII] + cs[chem.HeII] + 4*cs[chem.HeIII]) * cs[chem.Elec]
}

// SurfaceDensity integrates gas density along the given axis over the
// window, returning an n×n column-density map in code units × box length
// (the §6 projection / surface-density diagnostic for flattened objects).
// nsamp sets the number of integration samples along the line of sight.
// It is ProjectField for the gas density.
func SurfaceDensity(h *amr.Hierarchy, axis int, lo0, hi0, lo1, hi1 float64, n, nsamp, workers int) [][]float64 {
	return ProjectField(h, axis, lo0, hi0, lo1, hi1, n, nsamp, workers,
		func(g *amr.Grid, i, j, k int) float64 {
			return g.State.Rho.At(i, j, k)
		})
}

// ProjectField integrates an arbitrary cell quantity along the given axis
// over the window, sampling the finest covering grid at nsamp points per
// line of sight (resolved together by the sample lattice). Pixel rows are
// distributed over `workers` par goroutines (0 = NumCPU, 1 = serial); every
// pixel accumulates its own line of sight serially in sample order, so the
// projection is bitwise identical at any worker count. value must depend
// only on (g, i, j, k): it is called once per distinct cell of a line of
// sight, and a pixel whose cells repeat its neighbour's is copied.
func ProjectField(h *amr.Hierarchy, axis int, lo0, hi0, lo1, hi1 float64, n, nsamp, workers int,
	value func(g *amr.Grid, i, j, k int) float64) [][]float64 {
	dlos := 1.0 / float64(nsamp)
	los := make([]float64, max(nsamp, 0))
	for s := range los {
		los[s] = (float64(s) + 0.5) * dlos
	}
	return sampleLattice(h, axis, lo0, hi0, lo1, hi1, n, los, workers,
		func(l *lattice, a, b int, owner []int32) float64 {
			// One product per run of samples in the same grid and cell,
			// added once per sample.
			los := &l.tab[2]
			var sum, v float64
			cur := [2]int32{-1, -1} // grid and cell index of v
			for s, g := range owner {
				if c := [2]int32{g, los.idx[int(g)*los.n+s]}; c != cur {
					cur, v = c, value(l.cell(g, a, b, s))*dlos
				}
				sum += v
			}
			return sum
		})
}

// InertiaTensor returns the mass-weighted inertia tensor (second moments
// about the center) of the gas within radius rmax of center, in box
// units. Eigen-analysis of this tensor identifies flattened (disk-like)
// objects.
func InertiaTensor(h *amr.Hierarchy, center [3]float64, rmax float64) (tensor [3][3]float64, mass float64) {
	ForEachFinestCell(h, func(g *amr.Grid, i, j, k int, x, y, z float64) {
		d := [3]float64{minImage(x - center[0]), minImage(y - center[1]), minImage(z - center[2])}
		r2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		if r2 > rmax*rmax {
			return
		}
		m := g.State.Rho.At(i, j, k) * g.CellVolume()
		mass += m
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				tensor[a][b] += m * d[a] * d[b]
			}
		}
	})
	return
}

// Flattening returns the ratio of the smallest to largest principal
// moment of an inertia tensor (1 = spherical, → 0 = flattened/filament),
// computed via Jacobi eigenvalue iteration.
func Flattening(t [3][3]float64) float64 {
	ev := eigenvalues3(t)
	if ev[2] <= 0 {
		return 1
	}
	return ev[0] / ev[2]
}

// eigenvalues3 returns the sorted (ascending) eigenvalues of a symmetric
// 3x3 matrix using the Jacobi rotation method.
func eigenvalues3(m [3][3]float64) [3]float64 {
	a := m
	for sweep := 0; sweep < 50; sweep++ {
		// Largest off-diagonal element.
		p, q := 0, 1
		off := math.Abs(a[0][1])
		if math.Abs(a[0][2]) > off {
			p, q, off = 0, 2, math.Abs(a[0][2])
		}
		if math.Abs(a[1][2]) > off {
			p, q, off = 1, 2, math.Abs(a[1][2])
		}
		if off < 1e-18 {
			break
		}
		theta := 0.5 * math.Atan2(2*a[p][q], a[q][q]-a[p][p])
		c, s := math.Cos(theta), math.Sin(theta)
		var r [3][3]float64
		for i := 0; i < 3; i++ {
			r[i][i] = 1
		}
		r[p][p], r[q][q] = c, c
		r[p][q], r[q][p] = s, -s
		// a = r^T a r
		var tmp [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					tmp[i][j] += r[k][i] * a[k][j]
				}
			}
		}
		var next [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					next[i][j] += tmp[i][k] * r[k][j]
				}
			}
		}
		a = next
	}
	ev := []float64{a[0][0], a[1][1], a[2][2]}
	sort.Float64s(ev)
	return [3]float64{ev[0], ev[1], ev[2]}
}

// CollapsedObject is one density peak found by FindCollapsedObjects.
type CollapsedObject struct {
	Center  [3]float64
	PeakRho float64
	Mass    float64 // gas mass within Radius
	Radius  float64
}

// FindCollapsedObjects locates density peaks above threshold separated by
// at least minSep (box units), and measures the gas mass within minSep/2
// of each — the §6 "routines [that] facilitate finding collapsed objects".
func FindCollapsedObjects(h *amr.Hierarchy, threshold, minSep float64) []CollapsedObject {
	type peak struct {
		pos [3]float64
		rho float64
	}
	var peaks []peak
	ForEachFinestCell(h, func(g *amr.Grid, i, j, k int, x, y, z float64) {
		rho := g.State.Rho.At(i, j, k)
		if rho < threshold {
			return
		}
		peaks = append(peaks, peak{[3]float64{x, y, z}, rho})
	})
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].rho > peaks[j].rho })
	var out []CollapsedObject
	for _, p := range peaks {
		dup := false
		for _, o := range out {
			dx := minImage(p.pos[0] - o.Center[0])
			dy := minImage(p.pos[1] - o.Center[1])
			dz := minImage(p.pos[2] - o.Center[2])
			if dx*dx+dy*dy+dz*dz < minSep*minSep {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		obj := CollapsedObject{Center: p.pos, PeakRho: p.rho, Radius: minSep / 2}
		ForEachFinestCell(h, func(g *amr.Grid, i, j, k int, x, y, z float64) {
			dx := minImage(x - p.pos[0])
			dy := minImage(y - p.pos[1])
			dz := minImage(z - p.pos[2])
			if dx*dx+dy*dy+dz*dz <= obj.Radius*obj.Radius {
				obj.Mass += g.State.Rho.At(i, j, k) * g.CellVolume()
			}
		})
		out = append(out, obj)
	}
	return out
}
