package problems

import (
	"math"

	"repro/internal/amr"
	"repro/internal/chem"
	"repro/internal/units"
)

// kelvinHelmholtz sets up the classic shear instability in the unit
// periodic box: a dense central band streaming against a light ambient
// medium with a small sinusoidal transverse seed at both interfaces. The
// billows that roll up exercise contact-discontinuity advection and
// density-triggered refinement without any gravity.
func kelvinHelmholtz(o Opts) (*amr.Hierarchy, error) {
	rootN := o.RootN
	cfg := amr.DefaultConfig(rootN)
	cfg.SelfGravity = false
	cfg.JeansN = 0
	cfg.MaxLevel = o.MaxLevel
	// Refine the dense band (cell mass 2/n³ vs ambient 1/n³).
	cfg.MassThresholdGas = 1.7 / float64(rootN*rootN*rootN)
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	n := rootN
	const (
		rhoBand   = 2.0
		rhoAmb    = 1.0
		vShear    = 0.5
		pGas      = 2.5
		seedAmp   = 0.01
		seedSigma = 0.05
	)
	gm1 := cfg.Hydro.Gamma - 1
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			y := (float64(j) + 0.5) / float64(n)
			inBand := math.Abs(y-0.5) < 0.25
			rho, vx := rhoAmb, -vShear
			if inBand {
				rho, vx = rhoBand, vShear
			}
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				// Transverse seed localized at the two interfaces.
				d1 := (y - 0.25) / seedSigma
				d2 := (y - 0.75) / seedSigma
				vy := seedAmp * math.Sin(4*math.Pi*x) *
					(math.Exp(-0.5*d1*d1) + math.Exp(-0.5*d2*d2))
				eint := pGas / (gm1 * rho)
				root.State.Rho.Set(i, j, k, rho)
				root.State.Vx.Set(i, j, k, vx)
				root.State.Vy.Set(i, j, k, vy)
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint+0.5*(vx*vx+vy*vy))
			}
		}
	}
	h.RebuildHierarchy(1)
	return h, nil
}

// sodTube sets up two mirrored Sod shock tubes in the periodic box:
// standard left state (rho=1, p=1) between x=0.25 and x=0.75, right state
// (rho=0.125, p=0.1) outside, gamma=1.4. Each discontinuity launches the
// textbook shock/contact/rarefaction fan; until t≈0.14 the fans do not
// interact, so the exact-solution landmarks (contact plateau 0.4263,
// post-shock 0.2656) hold and validate either solver.
func sodTube(o Opts) (*amr.Hierarchy, error) {
	rootN := o.RootN
	cfg := amr.DefaultConfig(rootN)
	cfg.SelfGravity = false
	cfg.JeansN = 0
	cfg.MaxLevel = o.MaxLevel
	cfg.Hydro.Gamma = 1.4
	// Refine the dense inner region and the shocks running into the
	// light gas (ambient cell mass 0.125/n³).
	cfg.MassThresholdGas = 0.7 / float64(rootN*rootN*rootN)
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	n := rootN
	gm1 := cfg.Hydro.Gamma - 1
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				rho, p := 0.125, 0.1
				if x >= 0.25 && x < 0.75 {
					rho, p = 1.0, 1.0
				}
				eint := p / (gm1 * rho)
				root.State.Rho.Set(i, j, k, rho)
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint)
			}
		}
	}
	h.RebuildHierarchy(1)
	return h, nil
}

// coolingSphere sets up a non-cosmological overdense gas sphere that
// cools through the primordial network and collapses under self-gravity —
// the simplest workload where refinement is driven by cooling rather than
// by an expanding background. There is no dark matter and no expansion:
// the registry's proof that operators guard themselves (expansion and
// N-body are registered but inert here). The default knobs make a dense
// cloud where the chemistry matters: n ≈ 50 cm^-3, T = 1000 K, trace
// ionization.
func coolingSphere(o Opts) (*amr.Hierarchy, error) {
	// Free-fall-normalized units at the chosen density scale.
	u := units.Units{
		Density: o.Extra["rhounit"],
		Length:  o.Extra["boxpc"] * units.ParsecCM,
	}
	u.Time = 1 / math.Sqrt(4*math.Pi*units.G*u.Density)
	u.Derive()

	cfg := amr.DefaultConfig(o.RootN)
	cfg.SelfGravity = true
	cfg.GravConst = 1
	cfg.JeansN = 4
	cfg.MassThresholdGas = 4.0 / float64(o.RootN*o.RootN*o.RootN)
	cfg.MaxLevel = o.MaxLevel
	cfg.Units = u
	cfg.Hydro.CFL = 0.3
	if o.Chemistry {
		cfg.Chemistry = true
		cfg.NSpecies = chem.NumSpecies
		cfg.ChemParams = chem.DefaultSolverParams()
		cfg.CoolParams = chem.CoolParams{Redshift: 0}
	}
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	root := h.Root()
	n := o.RootN
	eint := u.EFromTemp(o.Extra["tinit"], cfg.Hydro.Gamma, units.MeanMolecularWeightNeutral)
	const sphereR = 0.1 // Gaussian radius in box units
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				r2 := sq((float64(i)+0.5)/float64(n)-0.5) +
					sq((float64(j)+0.5)/float64(n)-0.5) +
					sq((float64(k)+0.5)/float64(n)-0.5)
				rho := 1 + o.Extra["delta"]*math.Exp(-r2/(2*sphereR*sphereR))
				root.State.Rho.Set(i, j, k, rho)
				root.State.Eint.Set(i, j, k, eint)
				root.State.Etot.Set(i, j, k, eint)
			}
		}
	}
	// The periodic Poisson solve needs a zero-mean source: subtract the
	// actual mean of the background + sphere.
	h.Cfg.MeanRho = root.State.Rho.SumActive() / float64(n*n*n)
	if o.Chemistry {
		setPrimordialSpecies(h, u, 1, 1e-3, 2e-6)
	}
	h.RebuildHierarchy(1)
	return h, nil
}
