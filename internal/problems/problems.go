// Package problems provides the runnable problem setups of the
// reproduction: the validation workloads (Sedov blast wave, Zel'dovich
// pancake) and the headline primordial star formation problem at laptop
// scale, plus the paper's nested zoom-in cosmological initial conditions
// (§4: low-resolution pass → locate the first collapsing halo → restart
// with static refined meshes).
package problems

import (
	"math"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/chem"
	"repro/internal/cosmology"
	"repro/internal/ep128"
	"repro/internal/units"
)

// sedov sets up a point explosion in a cold uniform medium: energy e0
// deposited in the central cells of a unit box with density 1. The blast
// radius grows as (E t²/ρ)^{1/5}, exercising the hydro solvers and dynamic
// refinement on shocks.
func sedov(o Opts) (*amr.Hierarchy, error) {
	rootN := o.RootN
	cfg := amr.DefaultConfig(rootN)
	cfg.SelfGravity = false
	cfg.JeansN = 0
	cfg.MaxLevel = o.MaxLevel
	// Refine on the blast: cells above ~2x ambient mass.
	cfg.MassThresholdGas = 1.5 / float64(rootN*rootN*rootN)
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	root.State.Rho.Fill(1)
	root.State.Vx.Fill(0)
	root.State.Vy.Fill(0)
	root.State.Vz.Fill(0)
	eAmbient := 1e-6
	root.State.Eint.Fill(eAmbient)
	root.State.Etot.Fill(eAmbient)
	c := rootN / 2
	// Deposit e0 into the central 2^3 cells.
	cellVol := root.CellVolume()
	per := o.Extra["e0"] / (8 * cellVol) // energy density per cell -> specific for rho=1
	for k := c - 1; k <= c; k++ {
		for j := c - 1; j <= c; j++ {
			for i := c - 1; i <= c; i++ {
				root.State.Eint.Set(i, j, k, per)
				root.State.Etot.Set(i, j, k, per)
			}
		}
	}
	h.RebuildHierarchy(1)
	return h, nil
}

// ShockRadius estimates the Sedov shock position as the outermost radius
// (from the box center) where density exceeds the ambient by 10%. The
// measurement uses the finest available cells, so once refinement tracks
// the blast the shock front is located at the refined resolution instead
// of the root-grid average (which underreports the position by up to a
// coarse cell).
func ShockRadius(h *amr.Hierarchy) float64 {
	best := 0.0
	analysis.ForEachFinestCell(h, func(g *amr.Grid, i, j, k int, x, y, z float64) {
		if g.State.Rho.At(i, j, k) <= 1.1 {
			return
		}
		r := math.Sqrt(sq(x-0.5) + sq(y-0.5) + sq(z-0.5))
		if r > best {
			best = r
		}
	})
	return best
}

// pancake builds the classic 1-D Zel'dovich pancake in a 3-D periodic box:
// a single sinusoidal perturbation mode that collapses to a caustic at
// a = acollapse, with gas and matching dark-matter particles. The standard
// cosmological validation problem of the original code.
func pancake(o Opts) (*amr.Hierarchy, error) {
	aStart := o.Extra["astart"]
	p := cosmology.StandardCDM()
	bg := cosmology.NewBackground(p, aStart)
	u := units.Cosmological(units.MpcCM, p.OmegaM, 0.5, aStart)

	cfg := amr.DefaultConfig(o.RootN)
	cfg.SelfGravity = true
	cfg.GravConst = 1 // free-fall normalized units
	cfg.MeanRho = 1
	cfg.JeansN = 0
	cfg.MassThresholdGas = 4.0 / float64(o.RootN*o.RootN*o.RootN)
	cfg.MaxLevel = o.MaxLevel
	cfg.Cosmo = bg
	cfg.InitialA = aStart
	cfg.Units = u
	cfg.Hydro.CFL = 0.3
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	n := o.RootN
	fb := p.OmegaB / p.OmegaM

	// Zel'dovich: x = q + D/D(ac) * sin(2πq)/2π (normalized so the
	// caustic forms when D(a)=D(ac)), with growing-mode velocities.
	dNow := p.GrowthFactor(aStart)
	dCol := p.GrowthFactor(o.Extra["acollapse"])
	amp := dNow / dCol
	hub := p.Hubble(aStart)
	f := p.GrowthRate(aStart)
	// Gas: Eulerian density from the Zel'dovich map, velocities from ψ.
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				q := (float64(i) + 0.5) / float64(n)
				den := 1 / (1 + amp*math.Cos(2*math.Pi*q))
				vx := amp * hub * f * math.Sin(2*math.Pi*q) / (2 * math.Pi) * u.Time
				root.State.Rho.Set(i, j, k, fb*den)
				root.State.Vx.Set(i, j, k, vx)
				eint := 1e-8
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint+0.5*vx*vx)
			}
		}
	}
	// Dark matter: one particle per cell displaced by the same map.
	mDM := (1 - fb) / float64(n*n*n)
	id := int64(0)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				q := (float64(i) + 0.5) / float64(n)
				x := q + amp*math.Sin(2*math.Pi*q)/(2*math.Pi)
				vx := amp * hub * f * math.Sin(2*math.Pi*q) / (2 * math.Pi) * u.Time
				root.Parts.Add(
					ep128.FromFloat64(wrap01(x)),
					ep128.FromFloat64((float64(j)+0.5)/float64(n)),
					ep128.FromFloat64((float64(k)+0.5)/float64(n)),
					vx, 0, 0, mDM, id)
				id++
			}
		}
	}
	h.RebuildHierarchy(1)
	return h, nil
}

// primordialCollapse sets up the headline problem: a cool primordial gas
// clump with trace ionization inside a dark-matter overdensity, in
// comoving coordinates with the full 12-species chemistry. The collapse
// drives progressive refinement exactly as in the paper, at reduced
// dynamic range. The default knobs make a 5×10⁵ M⊙-class halo in a
// small comoving box at z≈19, mirroring the state of the paper's Fig. 4
// first output time.
func primordialCollapse(o Opts) (*amr.Hierarchy, error) {
	delta, redshift := o.Extra["delta"], o.Extra["redshift"]
	p := cosmology.StandardCDM()
	a0 := cosmology.AofZ(redshift)
	bg := cosmology.NewBackground(p, a0)
	u := units.Cosmological(o.Extra["boxkpc"]*units.KpcCM, p.OmegaM, 0.5, a0)

	cfg := amr.DefaultConfig(o.RootN)
	cfg.SelfGravity = true
	cfg.GravConst = 1
	cfg.MeanRho = 1
	cfg.JeansN = 4
	cfg.MassThresholdGas = 4.0 * (p.OmegaB / p.OmegaM) / float64(o.RootN*o.RootN*o.RootN)
	cfg.MassThresholdDM = 4.0 * (1 - p.OmegaB/p.OmegaM) / float64(o.RootN*o.RootN*o.RootN)
	cfg.MaxLevel = o.MaxLevel
	cfg.Cosmo = bg
	cfg.InitialA = a0
	cfg.Units = u
	cfg.Hydro.CFL = 0.3
	if o.Chemistry {
		cfg.Chemistry = true
		cfg.NSpecies = chem.NumSpecies
		cfg.ChemParams = chem.DefaultSolverParams()
		cfg.CoolParams = chem.CoolParams{Redshift: redshift}
	}
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	n := o.RootN
	fb := p.OmegaB / p.OmegaM
	eint := u.EFromTemp(o.Extra["tinit"], cfg.Hydro.Gamma, units.MeanMolecularWeightNeutral)

	// Gas: mean fb with a central Gaussian clump of amplitude delta*fb;
	// dark matter carries the matching (1-fb) share via particles.
	const clumpR = 0.12 // Gaussian radius in box units
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				r2 := sq((float64(i)+0.5)/float64(n)-0.5) +
					sq((float64(j)+0.5)/float64(n)-0.5) +
					sq((float64(k)+0.5)/float64(n)-0.5)
				over := 1 + delta*math.Exp(-r2/(2*clumpR*clumpR))
				root.State.Rho.Set(i, j, k, fb*over)
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint)
			}
		}
	}
	// Particles: one per cell, displaced slightly toward the center to
	// seed the same overdensity in the collisionless component.
	mPart := (1 - fb) / float64(n*n*n)
	id := int64(0)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				y := (float64(j) + 0.5) / float64(n)
				z := (float64(k) + 0.5) / float64(n)
				dx, dy, dz := x-0.5, y-0.5, z-0.5
				r2 := dx*dx + dy*dy + dz*dz
				// Radial inward displacement mimicking the converging
				// Zel'dovich flow onto the peak.
				disp := -0.25 * delta * clumpR * clumpR * math.Exp(-r2/(2*clumpR*clumpR))
				r := math.Sqrt(r2) + 1e-9
				root.Parts.Add(
					ep128.FromFloat64(wrap01(x+disp*dx/r)),
					ep128.FromFloat64(wrap01(y+disp*dy/r)),
					ep128.FromFloat64(wrap01(z+disp*dz/r)),
					0, 0, 0, mPart, id)
				id++
			}
		}
	}
	if o.Chemistry {
		setPrimordialSpecies(h, u, a0, 3e-4, 2e-6)
	}
	h.RebuildHierarchy(1)
	return h, nil
}

// setPrimordialSpecies initializes the 12 species fields from the gas
// density with ionization fraction xe and H2 fraction fH2 (code mass
// densities; the electron field stores n_e·m_p).
func setPrimordialSpecies(h *amr.Hierarchy, u units.Units, a0, xe, fH2 float64) {
	for _, lv := range h.Levels {
		for _, g := range lv {
			st := g.State
			for idx := range st.Rho.Data {
				rho := st.Rho.Data[idx]
				// Convert a unit gas density to the chem.Primordial
				// proportions: build fractions in mass-density terms.
				hMass := rho * units.HydrogenMassFraction
				heMass := rho * (1 - units.HydrogenMassFraction)
				st.Species[chem.HI].Data[idx] = hMass * (1 - xe - 2*fH2)
				st.Species[chem.HII].Data[idx] = hMass * xe
				st.Species[chem.Elec].Data[idx] = hMass * xe // n_e m_p
				st.Species[chem.H2I].Data[idx] = hMass * 2 * fH2
				st.Species[chem.HeI].Data[idx] = heMass
				st.Species[chem.HeII].Data[idx] = 0
				st.Species[chem.HeIII].Data[idx] = 0
				st.Species[chem.Hm].Data[idx] = 0
				st.Species[chem.H2p].Data[idx] = 0
				st.Species[chem.DI].Data[idx] = hMass * 4e-5 * 2
				st.Species[chem.DII].Data[idx] = 0
				st.Species[chem.HD].Data[idx] = 0
			}
		}
	}
}

// cosmologicalZoom reproduces the paper's initial-conditions workflow:
// generate a realization at the effective fine resolution, locate the
// densest region (the low-resolution first pass), and build a hierarchy
// whose static refined levels cover that region with the fine-grained
// modes — "equivalent to 512³ initial conditions over the entire box" at
// our scale.
func cosmologicalZoom(o Opts) (*amr.Hierarchy, *cosmology.ZoomIC, error) {
	// The paper's box side [comoving kpc]; a float constant, so that
	// boxKpc/1000 does not truncate to 0.
	const boxKpc = 256.0
	staticLevels, redshift := int(o.Extra["staticlevels"]), o.Extra["redshift"]
	p := cosmology.StandardCDM()
	a0 := cosmology.AofZ(redshift)
	// Box in Mpc/h for the power spectrum sampling.
	hpar := 0.5
	boxMpcH := boxKpc / 1000 * hpar
	zic, err := p.GenerateZoomIC(o.RootN, staticLevels, boxMpcH, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	ci, cj, ck := zic.DensestCell(0)
	center := [3]float64{
		(float64(ci) + 0.5) / float64(o.RootN),
		(float64(cj) + 0.5) / float64(o.RootN),
		(float64(ck) + 0.5) / float64(o.RootN),
	}
	bg := cosmology.NewBackground(p, a0)
	u := units.Cosmological(boxKpc*units.KpcCM, p.OmegaM, hpar, a0)

	cfg := amr.DefaultConfig(o.RootN)
	cfg.SelfGravity = true
	cfg.GravConst = 1
	cfg.MeanRho = 1
	cfg.JeansN = 4
	fb := p.OmegaB / p.OmegaM
	cfg.MassThresholdGas = 4 * fb / float64(o.RootN*o.RootN*o.RootN)
	cfg.MassThresholdDM = 4 * (1 - fb) / float64(o.RootN*o.RootN*o.RootN)
	cfg.MaxLevel = o.MaxLevel
	cfg.StaticLevels = staticLevels
	const half = 0.15
	for d := 0; d < 3; d++ {
		cfg.StaticLo[d] = center[d] - half
		cfg.StaticHi[d] = center[d] + half
	}
	cfg.Cosmo = bg
	cfg.InitialA = a0
	cfg.Units = u
	cfg.Hydro.CFL = 0.3
	if o.Chemistry {
		cfg.Chemistry = true
		cfg.NSpecies = chem.NumSpecies
		cfg.ChemParams = chem.DefaultSolverParams()
		cfg.CoolParams = chem.CoolParams{Redshift: redshift}
	}
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, nil, err
	}

	// Root-grid gas from the level-0 realization, scaled to the starting
	// growth factor.
	d0 := p.GrowthFactor(a0)
	hub := p.Hubble(a0)
	fgr := p.GrowthRate(a0)
	root := h.Root()
	n := o.RootN
	r0 := zic.Levels[0]
	tInit := 140 * (a0 / 0.0073) * (a0 / 0.0073) // adiabatic T(z) after decoupling
	eint := u.EFromTemp(tInit, cfg.Hydro.Gamma, units.MeanMolecularWeightNeutral)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				idx := (k*n+j)*n + i
				delta := d0 * r0.Dlt[idx]
				if delta < -0.9 {
					delta = -0.9
				}
				root.State.Rho.Set(i, j, k, fb*(1+delta))
				vfac := d0 * hub * fgr * u.Time
				root.State.Vx.Set(i, j, k, vfac*r0.PsiX[idx])
				root.State.Vy.Set(i, j, k, vfac*r0.PsiY[idx])
				root.State.Vz.Set(i, j, k, vfac*r0.PsiZ[idx])
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint)
			}
		}
	}
	// Dark matter: fine particles inside the static region (capturing
	// the small-wavelength modes), coarse outside.
	fine := zic.Levels[zic.FineLevel]
	fineN := fine.N
	mFine := (1 - fb) / float64(fineN*fineN*fineN)
	id := int64(0)
	inStatic := func(x, y, z float64) bool {
		return x >= cfg.StaticLo[0] && x < cfg.StaticHi[0] &&
			y >= cfg.StaticLo[1] && y < cfg.StaticHi[1] &&
			z >= cfg.StaticLo[2] && z < cfg.StaticHi[2]
	}
	coarseStride := fineN / o.RootN
	for k := 0; k < fineN; k++ {
		for j := 0; j < fineN; j++ {
			for i := 0; i < fineN; i++ {
				q := [3]float64{
					(float64(i) + 0.5) / float64(fineN),
					(float64(j) + 0.5) / float64(fineN),
					(float64(k) + 0.5) / float64(fineN),
				}
				fineHere := inStatic(q[0], q[1], q[2])
				if !fineHere {
					// Outside the zoom: one particle per coarse cell only.
					if i%coarseStride != 0 || j%coarseStride != 0 || k%coarseStride != 0 {
						continue
					}
				}
				idx := (k*fineN+j)*fineN + i
				mass := mFine
				if !fineHere {
					mass = mFine * float64(coarseStride*coarseStride*coarseStride)
				}
				vfac := d0 * hub * fgr * u.Time
				root.Parts.Add(
					ep128.FromFloat64(wrap01(q[0]+d0*fine.PsiX[idx])),
					ep128.FromFloat64(wrap01(q[1]+d0*fine.PsiY[idx])),
					ep128.FromFloat64(wrap01(q[2]+d0*fine.PsiZ[idx])),
					vfac*fine.PsiX[idx], vfac*fine.PsiY[idx], vfac*fine.PsiZ[idx],
					mass, id)
				id++
			}
		}
	}
	if o.Chemistry {
		setPrimordialSpecies(h, u, a0, 3e-4, 2e-6)
	}
	h.RebuildHierarchy(1)
	return h, zic, nil
}

func sq(x float64) float64 { return x * x }

func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}
