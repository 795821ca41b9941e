// Package gravity implements the Poisson solvers of the paper (§3.3): an
// FFT solve on the periodic root grid, and a multigrid relaxation solver
// for subgrids whose Dirichlet boundary potentials are interpolated from
// the parent (with an iterative sibling exchange handled by the AMR
// layer).
//
// The equation solved is the comoving Poisson equation
//
//	∇²φ = C (ρ - ρ̄)
//
// where C = 4πG/a in code units and ρ̄ subtracts the mean density (the
// cosmological background does not gravitate; only fluctuations do).
package gravity

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/mesh"
	"repro/internal/par"
)

// SolvePeriodic solves ∇²φ = coeff·(ρ - mean(ρ)) on a periodic grid with
// the FFT, using the eigenvalues of the discrete 7-point Laplacian so the
// returned potential satisfies the difference equation to round-off. rho's
// active size must be a power of two in each dimension; dx is the cell
// width. The result has the same ghost depth as rho with periodic ghosts
// filled.
func SolvePeriodic(rho *mesh.Field3, dx, coeff float64) (*mesh.Field3, error) {
	return SolvePeriodicWorkers(rho, dx, coeff, 0)
}

// SolvePeriodicWorkers is SolvePeriodic with an explicit worker bound for
// the FFT line batches and the mode-division pass (par conventions:
// 0 = NumCPU, 1 = serial). The result is bitwise identical at any setting.
func SolvePeriodicWorkers(rho *mesh.Field3, dx, coeff float64, workers int) (*mesh.Field3, error) {
	nx, ny, nz := rho.Nx, rho.Ny, rho.Nz
	plan, err := fft.NewPlan3(nx, ny, nz)
	if err != nil {
		return nil, fmt.Errorf("gravity: root grid: %w", err)
	}
	plan.Workers = workers
	n := nx * ny * nz
	work := make([]complex128, n)
	mean := rho.SumActive() / float64(n)
	par.For(workers, nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					work[(k*ny+j)*nx+i] = complex(coeff*(rho.At(i, j, k)-mean), 0)
				}
			}
		}
	})
	plan.Forward(work)
	// Discrete Laplacian eigenvalue for mode m along a dimension of
	// size N: (2 cos(2π m/N) - 2) / dx².
	lx := lapEigen(nx, dx)
	ly := lapEigen(ny, dx)
	lz := lapEigen(nz, dx)
	par.For(workers, nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := (k*ny+j)*nx + i
					den := lx[i] + ly[j] + lz[k]
					if den == 0 {
						work[idx] = 0 // zero mode: potential defined up to a constant
						continue
					}
					work[idx] /= complex(den, 0)
				}
			}
		}
	})
	plan.Inverse(work)
	phi := mesh.NewField3(nx, ny, nz, rho.Ng)
	par.For(workers, nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					phi.Set(i, j, k, real(work[(k*ny+j)*nx+i]))
				}
			}
		}
	})
	phi.ApplyPeriodicBC()
	return phi, nil
}

func lapEigen(n int, dx float64) []float64 {
	v := make([]float64, n)
	for m := 0; m < n; m++ {
		v[m] = (2*math.Cos(2*math.Pi*float64(m)/float64(n)) - 2) / (dx * dx)
	}
	return v
}

// Accelerations differentiates the potential with central differences,
// returning g = -∇φ. The potential's ghost zones must be valid. Rows walk
// the flat arrays by stride, k-planes fanned out over workers (par
// conventions); every cell is independent, so the result is bitwise
// identical at any setting.
func Accelerations(phi *mesh.Field3, dx float64, workers int) (gx, gy, gz *mesh.Field3) {
	gx = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	gy = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	gz = mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	inv2dx := 1 / (2 * dx)
	pd, xd, yd, zd := phi.Data, gx.Data, gy.Data, gz.Data
	sy, sz := phi.StrideY(), phi.StrideZ()
	par.For(workers, phi.Nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < phi.Ny; j++ {
				idx := phi.Idx(0, j, k) // the outputs share phi's shape
				for end := idx + phi.Nx; idx < end; idx++ {
					xd[idx] = -(pd[idx+1] - pd[idx-1]) * inv2dx
					yd[idx] = -(pd[idx+sy] - pd[idx-sy]) * inv2dx
					zd[idx] = -(pd[idx+sz] - pd[idx-sz]) * inv2dx
				}
			}
		}
	})
	return
}

// Residual computes r = rhs - ∇²φ over the active region (7-point
// Laplacian; φ's ghosts must hold the boundary values).
func Residual(phi, rhs *mesh.Field3, dx float64) *mesh.Field3 {
	return residualWorkers(phi, rhs, dx, 1)
}

func residualWorkers(phi, rhs *mesh.Field3, dx float64, workers int) *mesh.Field3 {
	r := mesh.NewField3(phi.Nx, phi.Ny, phi.Nz, phi.Ng)
	residualInto(r, phi, rhs, dx, workers)
	return r
}

// residualInto computes the residual into a caller-supplied field,
// letting iterative callers reuse one allocation across cycles. The rows
// walk the flat arrays with precomputed strides instead of per-cell At()
// index arithmetic (seven neighbor loads per cell in the hot loop).
func residualInto(r, phi, rhs *mesh.Field3, dx float64, workers int) {
	inv := 1 / (dx * dx)
	pd, rd, dst := phi.Data, rhs.Data, r.Data
	sy, sz := phi.StrideY(), phi.StrideZ()
	par.For(workers, phi.Nz, 0, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < phi.Ny; j++ {
				idx := phi.Idx(0, j, k)
				ridx := rhs.Idx(0, j, k)
				didx := r.Idx(0, j, k)
				for i := 0; i < phi.Nx; i++ {
					lap := (pd[idx+1] + pd[idx-1] +
						pd[idx+sy] + pd[idx-sy] +
						pd[idx+sz] + pd[idx-sz] -
						6*pd[idx]) * inv
					dst[didx] = rd[ridx] - lap
					idx++
					ridx++
					didx++
				}
			}
		}
	})
}

// ResidualNorm returns the rms residual.
func ResidualNorm(phi, rhs *mesh.Field3, dx float64) float64 {
	r := Residual(phi, rhs, dx)
	var s float64
	for k := 0; k < r.Nz; k++ {
		for j := 0; j < r.Ny; j++ {
			for i := 0; i < r.Nx; i++ {
				v := r.At(i, j, k)
				s += v * v
			}
		}
	}
	return math.Sqrt(s / float64(r.Nx*r.Ny*r.Nz))
}
