// Package analysis implements the paper's §6 analysis toolkit: finding
// collapsed objects (densest points), mass-weighted spherically averaged
// radial profiles about them (the Fig. 4 quantities: number density,
// enclosed gas mass, species mass fractions, temperature, radial velocity
// and sound speed), and hierarchy-aware slice extraction for the zooming
// visualizations of Fig. 3. All routines understand the structure of the
// hierarchy: each point of space is represented by its finest covering
// grid, and coarse cells under refined regions are skipped.
//
// Slices and projections resolve whole lines of sight through per-axis
// containment and cell-index tables (lattice.go), bitwise equal to a
// FinestGridAt descent per sample, at any worker count.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/amr"
	"repro/internal/chem"
	"repro/internal/par"
	"repro/internal/units"
)

// DensestPoint returns the box-unit position and density of the maximum
// gas density cell at the finest resolution available.
func DensestPoint(h *amr.Hierarchy) (pos [3]float64, rho float64) {
	rho = math.Inf(-1)
	ForEachFinestCell(h, func(g *amr.Grid, i, j, k int, x, y, z float64) {
		if v := g.State.Rho.At(i, j, k); v > rho {
			rho = v
			pos = [3]float64{x, y, z}
		}
	})
	return
}

// ForEachFinestCell visits every cell of the composite (finest-available)
// solution exactly once, passing the owning grid, cell indices, and the
// cell-center position in box units. Grids are visited level by level in
// hierarchy order and cells in k,j,i order, so the visit sequence is
// deterministic.
func ForEachFinestCell(h *amr.Hierarchy, fn func(g *amr.Grid, i, j, k int, x, y, z float64)) {
	for _, lv := range h.Levels {
		for _, g := range lv {
			forEachUncoveredCell(h, g, fn)
		}
	}
}

// forEachUncoveredCell visits the cells of one grid that are not covered
// by any of its children, in k,j,i order — the per-grid unit of work the
// parallel reductions partition on.
func forEachUncoveredCell(h *amr.Hierarchy, g *amr.Grid, fn func(g *amr.Grid, i, j, k int, x, y, z float64)) {
	r := h.Cfg.Refine
	ex := g.Edge[0].Float64()
	ey := g.Edge[1].Float64()
	ez := g.Edge[2].Float64()
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
		cell:
			for i := 0; i < g.Nx; i++ {
				// Skip if covered by a child.
				gi, gj, gk := (g.Lo[0]+i)*r, (g.Lo[1]+j)*r, (g.Lo[2]+k)*r
				for _, c := range g.Children {
					if c.ContainsGlobal(gi, gj, gk) {
						continue cell
					}
				}
				fn(g, i, j, k,
					ex+(float64(i)+0.5)*g.Dx,
					ey+(float64(j)+0.5)*g.Dx,
					ez+(float64(k)+0.5)*g.Dx)
			}
		}
	}
}

// allGrids flattens the hierarchy into its deterministic grid order
// (level-major, then creation order within a level).
func allGrids(h *amr.Hierarchy) []*amr.Grid {
	var out []*amr.Grid
	for _, lv := range h.Levels {
		out = append(out, lv...)
	}
	return out
}

// Profile holds mass-weighted spherical averages in logarithmic radial
// bins about a center, mirroring the panels of Fig. 4.
type Profile struct {
	Center [3]float64
	// Per-bin geometric quantities.
	R         []float64 // bin-center radius [box units]
	Mass      []float64 // gas mass in bin [code units]
	Enclosed  []float64 // cumulative gas mass within R [code units]
	Density   []float64 // mean gas density [code units]
	DMDensity []float64 // mean dark-matter density [code units]
	Temp      []float64 // mass-weighted temperature [K] (chemistry runs)
	Vr        []float64 // mass-weighted radial velocity [code units]
	Cs        []float64 // mass-weighted sound speed [code units]
	H2Frac    []float64 // H2 mass fraction
	HIFrac    []float64 // HI mass fraction
	CellsUsed int
}

// ProfileParams configures the binning.
type ProfileParams struct {
	RMin, RMax float64 // radial range [box units]
	NBins      int
	Gamma      float64
	// Units converts code energies to temperatures when the run carries
	// no chemistry fields; with chemistry, mu comes from the species.
	Units units.Units
	// Workers bounds the par goroutines used for the binning sweep
	// (0 = NumCPU, 1 = serial — the repository-wide convention).
	Workers int
}

// profilePartial holds one grid's contribution to every bin. Each grid is
// accumulated serially in cell order by whichever worker claims it, and
// the partials are reduced in grid order, so the result is bitwise
// independent of the worker count.
type profilePartial struct {
	mass, vol, dmMass, vr, cs, temp, h2, hi []float64
	cells                                   int
}

// RadialProfile computes mass-weighted spherical averages about center,
// using the minimum-image convention in the periodic box. The sweep over
// grids runs on p.Workers par workers; per-grid partial bins are reduced
// in fixed hierarchy order, so the profile is bitwise identical at any
// worker count.
func RadialProfile(h *amr.Hierarchy, center [3]float64, p ProfileParams) (*Profile, error) {
	if p.NBins < 1 || p.RMin <= 0 || p.RMax <= p.RMin {
		return nil, fmt.Errorf("analysis: bad profile params %+v", p)
	}
	pr := &Profile{Center: center}
	pr.R = make([]float64, p.NBins)
	lrMin, lrMax := math.Log(p.RMin), math.Log(p.RMax)
	dlr := (lrMax - lrMin) / float64(p.NBins)
	for b := 0; b < p.NBins; b++ {
		pr.R[b] = math.Exp(lrMin + (float64(b)+0.5)*dlr)
	}
	nb := p.NBins
	pr.Mass = make([]float64, nb)
	pr.Enclosed = make([]float64, nb)
	pr.Density = make([]float64, nb)
	pr.DMDensity = make([]float64, nb)
	pr.Temp = make([]float64, nb)
	pr.Vr = make([]float64, nb)
	pr.Cs = make([]float64, nb)
	pr.H2Frac = make([]float64, nb)
	pr.HIFrac = make([]float64, nb)
	vol := make([]float64, nb)
	dmMass := make([]float64, nb)

	gamma := p.Gamma
	if gamma <= 1 {
		gamma = 5.0 / 3.0
	}
	hasChem := h.Cfg.Chemistry

	grids := allGrids(h)
	partials := make([]profilePartial, len(grids))
	par.For(p.Workers, len(grids), 1, func(_, lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			pp := &partials[gi]
			pp.mass = make([]float64, nb)
			pp.vol = make([]float64, nb)
			pp.dmMass = make([]float64, nb)
			pp.vr = make([]float64, nb)
			pp.cs = make([]float64, nb)
			pp.temp = make([]float64, nb)
			pp.h2 = make([]float64, nb)
			pp.hi = make([]float64, nb)
			forEachUncoveredCell(h, grids[gi], func(g *amr.Grid, i, j, k int, x, y, z float64) {
				dx := minImage(x - center[0])
				dy := minImage(y - center[1])
				dz := minImage(z - center[2])
				rr := math.Sqrt(dx*dx + dy*dy + dz*dz)
				if rr < 1e-12 {
					rr = 1e-12
				}
				b := int((math.Log(rr) - lrMin) / dlr)
				if b < 0 || b >= nb {
					return
				}
				cv := g.CellVolume()
				rho := g.State.Rho.At(i, j, k)
				m := rho * cv
				pp.mass[b] += m
				pp.vol[b] += cv
				pp.dmMass[b] += g.DMRho.At(i, j, k) * cv
				vr := (g.State.Vx.At(i, j, k)*dx + g.State.Vy.At(i, j, k)*dy + g.State.Vz.At(i, j, k)*dz) / rr
				pp.vr[b] += m * vr
				eint := g.State.Eint.At(i, j, k)
				pp.cs[b] += m * math.Sqrt(gamma*(gamma-1)*eint)
				if hasChem {
					mu := cellMu(g, i, j, k)
					tK := eint * p.Units.Velocity * p.Units.Velocity * (gamma - 1) * mu * units.MProton / units.KBoltzmann
					pp.temp[b] += m * tK
					hi := g.State.Species[chem.HI].At(i, j, k)
					h2 := g.State.Species[chem.H2I].At(i, j, k)
					pp.h2[b] += m * h2 / rho
					pp.hi[b] += m * hi / rho
				} else {
					pp.temp[b] += m * p.Units.TempFromE(eint, gamma, units.MeanMolecularWeightNeutral)
				}
				pp.cells++
			})
		}
	})
	// Fixed-order reduction: grid order, then bin order.
	for gi := range partials {
		pp := &partials[gi]
		for b := 0; b < nb; b++ {
			pr.Mass[b] += pp.mass[b]
			vol[b] += pp.vol[b]
			dmMass[b] += pp.dmMass[b]
			pr.Vr[b] += pp.vr[b]
			pr.Cs[b] += pp.cs[b]
			pr.Temp[b] += pp.temp[b]
			pr.H2Frac[b] += pp.h2[b]
			pr.HIFrac[b] += pp.hi[b]
		}
		pr.CellsUsed += pp.cells
	}

	var cum float64
	for b := 0; b < nb; b++ {
		cum += pr.Mass[b]
		pr.Enclosed[b] = cum
		if pr.Mass[b] > 0 {
			pr.Vr[b] /= pr.Mass[b]
			pr.Cs[b] /= pr.Mass[b]
			pr.Temp[b] /= pr.Mass[b]
			pr.H2Frac[b] /= pr.Mass[b]
			pr.HIFrac[b] /= pr.Mass[b]
		}
		if vol[b] > 0 {
			pr.Density[b] = pr.Mass[b] / vol[b]
			pr.DMDensity[b] = dmMass[b] / vol[b]
		}
	}
	return pr, nil
}

// cellMu returns the mean molecular weight from the cell's species fields.
func cellMu(g *amr.Grid, i, j, k int) float64 {
	var massD, numD float64
	for sp := 0; sp < chem.NumSpecies && sp < len(g.State.Species); sp++ {
		w := chem.AtomicWeight[sp]
		if w == 0 {
			w = 1 // electron field stored as n_e * m_p
		}
		d := g.State.Species[sp].At(i, j, k)
		if sp != chem.Elec {
			massD += d
		}
		numD += d / w
	}
	if numD <= 0 {
		return units.MeanMolecularWeightNeutral
	}
	return massD / numD
}

// minImage folds a separation into [-0.5, 0.5) for the unit periodic box.
func minImage(d float64) float64 {
	for d >= 0.5 {
		d--
	}
	for d < -0.5 {
		d++
	}
	return d
}

// Slice samples a 2-D plane of the composite solution. axis selects the
// normal (0=x: plane spans y,z); coord is the plane position in box units;
// the window [lo0,hi0)x[lo1,hi1) is sampled at n×n points. value extracts
// the quantity from the finest covering grid (the sample lattice with a
// one-point line of sight). Rows are sampled in parallel on `workers` par
// goroutines (0 = NumCPU, 1 = serial); each row is written by exactly one
// worker, so the image is bitwise identical at any worker count. value
// must depend only on (g, i, j, k): a pixel whose cell repeats its
// neighbour's is copied, not evaluated.
func Slice(h *amr.Hierarchy, axis int, coord float64, lo0, hi0, lo1, hi1 float64, n, workers int,
	value func(g *amr.Grid, i, j, k int) float64) [][]float64 {
	return sampleLattice(h, axis, lo0, hi0, lo1, hi1, n, []float64{coord}, workers,
		func(l *lattice, a, b int, owner []int32) float64 {
			return value(l.cell(owner[0], a, b, 0))
		})
}

// DensitySlice is the Fig. 3 quantity: log10 of gas density.
func DensitySlice(h *amr.Hierarchy, axis int, coord float64, lo0, hi0, lo1, hi1 float64, n, workers int) [][]float64 {
	return Slice(h, axis, coord, lo0, hi0, lo1, hi1, n, workers, func(g *amr.Grid, i, j, k int) float64 {
		return math.Log10(math.Max(g.State.Rho.At(i, j, k), 1e-300))
	})
}
