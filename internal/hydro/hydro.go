// Package hydro implements the two Euler solvers of the paper (§3.2.1): the
// piecewise parabolic method (PPM) modified for cosmology (Bryan et al.
// 1995) and a robust finite-difference scheme in the spirit of ZEUS (Stone
// & Norman 1992), here realized as a MUSCL/Rusanov scheme — deliberately
// more diffusive and unconditionally robust, providing the paper's
// "double check on any result".
//
// Both solvers are dimensionally split and operate on uniform Cartesian
// grids ("off-the-shelf solvers" running unchanged on every AMR grid). Gas
// is evolved in comoving coordinates: the comoving density has no explicit
// expansion term, while peculiar velocity and internal energy feel the
// expansion drag applied by ApplyExpansion.
//
// The dual-energy formalism tracks the internal energy separately from the
// total energy so that temperatures stay accurate in hypersonic flows
// (kinetic-energy dominated regions), as in the original code.
package hydro

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// NGhost is the ghost-zone depth required by the PPM stencil.
const NGhost = 4

// Params carries the solver configuration.
type Params struct {
	Gamma     float64 // adiabatic index (5/3 for primordial gas)
	CFL       float64 // Courant number (0.4-0.5 typical)
	DualEta   float64 // dual-energy selector threshold (0.008 Enzo default)
	FloorRho  float64 // density floor
	FloorEint float64 // specific internal energy floor

	// Workers bounds the goroutines used to sweep pencils concurrently
	// (par conventions: 0 = NumCPU, 1 = serial). Pencils are independent
	// 1-D problems, so results are bitwise identical at any setting.
	// Under the AMR driver leave this 0: the hierarchy plumbs its own
	// Workers budget in (and caps an explicit value by that budget when
	// several grids step concurrently).
	Workers int
}

// DefaultParams returns production defaults matching the original code.
func DefaultParams() Params {
	return Params{
		Gamma:     5.0 / 3.0,
		CFL:       0.4,
		DualEta:   0.008,
		FloorRho:  1e-20,
		FloorEint: 1e-20,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Gamma <= 1 {
		return fmt.Errorf("hydro: gamma must exceed 1, got %g", p.Gamma)
	}
	if p.CFL <= 0 || p.CFL > 1 {
		return fmt.Errorf("hydro: CFL must be in (0,1], got %g", p.CFL)
	}
	return nil
}

// State is the fluid state on one grid: comoving density, peculiar
// velocities, total and internal specific energies, plus any number of
// advected species densities (the chemistry fields).
type State struct {
	Rho     *mesh.Field3
	Vx      *mesh.Field3
	Vy      *mesh.Field3
	Vz      *mesh.Field3
	Etot    *mesh.Field3 // specific total energy
	Eint    *mesh.Field3 // specific internal energy (dual energy)
	Species []*mesh.Field3
}

// NewState allocates a state with the given active dimensions and NGhost
// ghost zones, plus nspecies advected species fields.
func NewState(nx, ny, nz, nspecies int) *State {
	s := &State{
		Rho:  mesh.NewField3(nx, ny, nz, NGhost),
		Vx:   mesh.NewField3(nx, ny, nz, NGhost),
		Vy:   mesh.NewField3(nx, ny, nz, NGhost),
		Vz:   mesh.NewField3(nx, ny, nz, NGhost),
		Etot: mesh.NewField3(nx, ny, nz, NGhost),
		Eint: mesh.NewField3(nx, ny, nz, NGhost),
	}
	for i := 0; i < nspecies; i++ {
		s.Species = append(s.Species, mesh.NewField3(nx, ny, nz, NGhost))
	}
	return s
}

// Fields returns all fields in canonical order (Rho, Vx, Vy, Vz, Etot,
// Eint, species...), used by the AMR layer for interpolation and boundary
// exchange.
func (s *State) Fields() []*mesh.Field3 {
	f := []*mesh.Field3{s.Rho, s.Vx, s.Vy, s.Vz, s.Etot, s.Eint}
	return append(f, s.Species...)
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		Rho:  s.Rho.Clone(),
		Vx:   s.Vx.Clone(),
		Vy:   s.Vy.Clone(),
		Vz:   s.Vz.Clone(),
		Etot: s.Etot.Clone(),
		Eint: s.Eint.Clone(),
	}
	for _, sp := range s.Species {
		c.Species = append(c.Species, sp.Clone())
	}
	return c
}

// SoundSpeed returns the adiabatic sound speed at active cell (i,j,k).
func (s *State) SoundSpeed(i, j, k int, gamma float64) float64 {
	return math.Sqrt(gamma * (gamma - 1) * s.Eint.At(i, j, k))
}

// Timestep returns the CFL-limited hydrodynamic timestep for cell width dx.
// Rows walk the flat arrays; each cell's signal speed is SoundSpeed's
// expression, and cells are visited in the same order.
func Timestep(s *State, dx float64, p Params) float64 {
	dtInv := 0.0
	nx := s.Rho.Nx
	for k := 0; k < s.Rho.Nz; k++ {
		for j := 0; j < s.Rho.Ny; j++ {
			o := s.Rho.Idx(0, j, k)
			eint := s.Eint.Data[o : o+nx]
			vx, vy, vz := s.Vx.Data[o:o+nx], s.Vy.Data[o:o+nx], s.Vz.Data[o:o+nx]
			for i := range eint {
				c := math.Sqrt(p.Gamma * (p.Gamma - 1) * eint[i])
				v := math.Abs(vx[i]) + math.Abs(vy[i]) + math.Abs(vz[i])
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

// TotalMass returns the total comoving mass on the active region for cell
// volume dx^3.
func (s *State) TotalMass(dx float64) float64 {
	return s.Rho.SumActive() * dx * dx * dx
}

// TotalEnergy returns the total (kinetic+thermal) energy on the active
// region for cell volume dx^3 (using Etot).
func (s *State) TotalEnergy(dx float64) float64 {
	var e float64
	for k := 0; k < s.Rho.Nz; k++ {
		for j := 0; j < s.Rho.Ny; j++ {
			for i := 0; i < s.Rho.Nx; i++ {
				e += s.Rho.At(i, j, k) * s.Etot.At(i, j, k)
			}
		}
	}
	return e * dx * dx * dx
}

// SyncDualEnergy applies the dual-energy selection (Enzo's eta switch): in
// cells where thermal energy is a fraction > eta of total, trust the
// conservative Etot; elsewhere trust the separately advected Eint and
// rebuild Etot from it.
func SyncDualEnergy(s *State, p Params) {
	for k := 0; k < s.Rho.Nz; k++ {
		for j := 0; j < s.Rho.Ny; j++ {
			for i := 0; i < s.Rho.Nx; i++ {
				vx, vy, vz := s.Vx.At(i, j, k), s.Vy.At(i, j, k), s.Vz.At(i, j, k)
				ke := 0.5 * (vx*vx + vy*vy + vz*vz)
				et := s.Etot.At(i, j, k)
				th := et - ke
				if th > p.DualEta*et && th > p.FloorEint {
					s.Eint.Set(i, j, k, th)
				} else {
					ei := s.Eint.At(i, j, k)
					if ei < p.FloorEint {
						ei = p.FloorEint
						s.Eint.Set(i, j, k, ei)
					}
					s.Etot.Set(i, j, k, ke+ei)
				}
			}
		}
	}
}

// ApplyExpansion applies the comoving-coordinate expansion drag over dt:
// dv/dt = -(ȧ/a) v and de/dt = -2(ȧ/a) e (for γ=5/3 the adiabatic
// expansion of a thermal gas), integrated exactly as exponentials.
// adot and a are the expansion rate and factor at the step midpoint.
func ApplyExpansion(s *State, adotOverA, dt float64) {
	fv := math.Exp(-adotOverA * dt)
	fe := math.Exp(-2 * adotOverA * dt)
	n := len(s.Rho.Data)
	for idx := 0; idx < n; idx++ {
		s.Vx.Data[idx] *= fv
		s.Vy.Data[idx] *= fv
		s.Vz.Data[idx] *= fv
	}
	for idx := 0; idx < n; idx++ {
		s.Eint.Data[idx] *= fe
	}
	// Rebuild total energy consistently.
	for idx := 0; idx < n; idx++ {
		vx, vy, vz := s.Vx.Data[idx], s.Vy.Data[idx], s.Vz.Data[idx]
		s.Etot.Data[idx] = 0.5*(vx*vx+vy*vy+vz*vz) + s.Eint.Data[idx]
	}
}

// KickGravity applies a gravitational velocity kick g*dt and the matching
// total-energy update. gx/gy/gz are cell-centered accelerations sharing
// one shape. Rows walk the flat arrays, k-planes fanned out over workers
// (par conventions); every cell is independent, so the result is bitwise
// identical at any setting.
func KickGravity(s *State, gx, gy, gz *mesh.Field3, dt float64, workers int) {
	nx := s.Rho.Nx
	par.For(workers, s.Rho.Nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < s.Rho.Ny; j++ {
				si, gi := s.Vx.Idx(0, j, k), gx.Idx(0, j, k)
				svx, svy, svz := s.Vx.Data[si:si+nx], s.Vy.Data[si:si+nx], s.Vz.Data[si:si+nx]
				etot := s.Etot.Data[si : si+nx]
				ax, ay, az := gx.Data[gi:gi+nx], gy.Data[gi:gi+nx], gz.Data[gi:gi+nx]
				for i := range svx {
					vx, vy, vz := svx[i], svy[i], svz[i]
					nvx, nvy, nvz := vx+ax[i]*dt, vy+ay[i]*dt, vz+az[i]*dt
					svx[i], svy[i], svz[i] = nvx, nvy, nvz
					// Kinetic energy change at fixed Eint.
					etot[i] += 0.5 * (nvx*nvx + nvy*nvy + nvz*nvz - vx*vx - vy*vy - vz*vz)
				}
			}
		}
	})
}
