// Package cosmology implements the expanding-background substrate of the
// simulation: the Friedmann equation for the expansion factor a(t), the
// linear growth factor, the standard CDM power spectrum, and Zel'dovich
// initial conditions including the paper's nested static-subgrid zoom-in
// technique (§4: 64³ root + 3 static refinement levels ≙ 512³ effective
// initial conditions).
package cosmology

import (
	"fmt"
	"math"
)

// Params specifies a Friedmann "world" model plus the power-spectrum
// amplitude, in the convention of the "standard CDM" model the paper
// simulates (Ostriker 1993 normalization).
type Params struct {
	OmegaM      float64 // total matter density parameter today
	OmegaB      float64 // baryon density parameter today
	OmegaLambda float64 // cosmological constant today
	H0          float64 // Hubble parameter today [1/s]
	Sigma8      float64 // rms fluctuation in 8 Mpc/h spheres (amplitude)
	NSpec       float64 // primordial spectral index (1 for standard CDM)
}

// StandardCDM returns the "standard CDM" model of the paper:
// Omega_M = 1, Omega_B = 0.06, h = 0.5, sigma_8 = 0.7, n = 1.
func StandardCDM() Params {
	return Params{
		OmegaM:      1.0,
		OmegaB:      0.06,
		OmegaLambda: 0.0,
		H0:          0.5 * 3.2407792896664e-18,
		Sigma8:      0.7,
		NSpec:       1.0,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.OmegaM <= 0 {
		return fmt.Errorf("cosmology: OmegaM must be positive, got %g", p.OmegaM)
	}
	if p.OmegaB < 0 || p.OmegaB > p.OmegaM {
		return fmt.Errorf("cosmology: OmegaB=%g out of range (0, OmegaM=%g)", p.OmegaB, p.OmegaM)
	}
	if p.H0 <= 0 {
		return fmt.Errorf("cosmology: H0 must be positive")
	}
	return nil
}

// Hubble returns H(a) = da/dt / a in [1/s].
func (p Params) Hubble(a float64) float64 {
	omegaK := 1 - p.OmegaM - p.OmegaLambda
	return p.H0 * math.Sqrt(p.OmegaM/(a*a*a)+omegaK/(a*a)+p.OmegaLambda)
}

// AofZ converts a redshift to an expansion factor.
func AofZ(z float64) float64 { return 1 / (1 + z) }

// AgeOfUniverse integrates t(a) = ∫ da / (a H(a)) from a=~0 with Simpson's
// rule in log a. For Omega_M = 1 (Einstein-de Sitter) this reproduces the
// analytic t = (2/3) a^{3/2} / H0.
func (p Params) AgeOfUniverse(a float64) float64 {
	const steps = 2048
	la0, la1 := math.Log(1e-8), math.Log(a)
	h := (la1 - la0) / steps
	f := func(la float64) float64 {
		aa := math.Exp(la)
		return 1 / p.Hubble(aa) // dt/dln a = 1/H
	}
	s := f(la0) + f(la1)
	for i := 1; i < steps; i++ {
		if i%2 == 1 {
			s += 4 * f(la0+float64(i)*h)
		} else {
			s += 2 * f(la0+float64(i)*h)
		}
	}
	return s * h / 3
}

// ExpansionFactorAt inverts AgeOfUniverse by bisection, returning a(t) for
// a cosmic time t [s]. Valid for t in the age range of a in
// [1e-6, 100].
func (p Params) ExpansionFactorAt(t float64) float64 {
	lo, hi := 1e-6, 100.0
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if p.AgeOfUniverse(mid) < t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// Background tracks the expansion factor during a simulation. It advances
// a(t) with fourth-order Runge-Kutta steps of the Friedmann equation and
// exposes the comoving-coordinate source terms the hydro and N-body solvers
// need.
type Background struct {
	Params Params
	A      float64 // current expansion factor
	T      float64 // current cosmic time [s]
}

// NewBackground initializes the background at expansion factor a0.
func NewBackground(p Params, a0 float64) *Background {
	return &Background{Params: p, A: a0, T: p.AgeOfUniverse(a0)}
}

// Adot returns da/dt at a.
func (b *Background) Adot(a float64) float64 { return a * b.Params.Hubble(a) }

// Advance steps the expansion factor forward by dt [s] with RK4.
func (b *Background) Advance(dt float64) {
	a := b.A
	k1 := b.Adot(a)
	k2 := b.Adot(a + 0.5*dt*k1)
	k3 := b.Adot(a + 0.5*dt*k2)
	k4 := b.Adot(a + dt*k3)
	b.A = a + dt*(k1+2*k2+2*k3+k4)/6
	b.T += dt
}

// GrowthFactor returns the linear growth factor D(a), normalized to
// D(1) = 1, using the standard integral solution
// D ∝ H(a) ∫ da' / (a' H(a'))^3.
func (p Params) GrowthFactor(a float64) float64 {
	g := func(a float64) float64 {
		const steps = 512
		if a <= 0 {
			return 0
		}
		h := a / steps
		var s float64
		for i := 0; i < steps; i++ {
			aa := (float64(i) + 0.5) * h
			e := p.Hubble(aa) / p.H0
			s += h / math.Pow(aa*e, 3)
		}
		return p.Hubble(a) / p.H0 * s
	}
	return g(a) / g(1)
}

// GrowthRate returns f = dlnD/dlna at a, via numerical differentiation.
func (p Params) GrowthRate(a float64) float64 {
	const eps = 1e-4
	d1 := p.GrowthFactor(a * (1 + eps))
	d0 := p.GrowthFactor(a * (1 - eps))
	return (math.Log(d1) - math.Log(d0)) / (2 * eps)
}
