package hydro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// awkwardState fills every allocated cell of an nx×ny×nz state, ghosts
// included, with a valid random flow and mixes randAwkward values into
// one cell in sixteen: negative and subnormal densities and energies
// that the floors catch, signed zeros, tiny and large values. Draws above
// 1e3 in magnitude are redrawn: a huge velocity overflows into NaNs that
// spread over most of a small grid, and the comparisons are bitwise.
func awkwardState(rng *rand.Rand, nx, ny, nz, nsp int) *State {
	s := NewState(nx, ny, nz, nsp)
	draw := func(v float64) float64 {
		if rng.Intn(16) != 0 {
			return v
		}
		for {
			if a := randAwkward(rng); math.Abs(a) <= 1e3 {
				return a
			}
		}
	}
	for idx := range s.Rho.Data {
		rho := 1 + rng.Float64()
		vx, vy, vz := rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5
		ei := 0.5 + rng.Float64()
		s.Rho.Data[idx] = draw(rho)
		s.Vx.Data[idx] = draw(vx)
		s.Vy.Data[idx] = draw(vy)
		s.Vz.Data[idx] = draw(vz)
		s.Eint.Data[idx] = draw(ei)
		s.Etot.Data[idx] = draw(ei + 0.5*(vx*vx+vy*vy+vz*vz))
		for sp := range s.Species {
			s.Species[sp].Data[idx] = draw(rho * 0.05 * rng.Float64())
		}
	}
	return s
}

// TestSweepMatchesParentBitwise holds Step3D — active-range pencils, fused
// reconstruction kernels, one-sided HLLC — to the parent chain in
// export_test.go: every active cell of every field, every register face
// and every tap, bit for bit, for both solvers, with and without species,
// at pencil lengths from 1 up, on non-cubic grids, both sweep orders, and
// with ghosts either refreshed before each sweep or left as inputs (the
// subgrid case).
func TestSweepMatchesParentBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	periodic := func(s *State) {
		for _, f := range s.Fields() {
			f.ApplyPeriodicBC()
		}
	}
	p := DefaultParams()
	p.Workers = 2
	for _, solver := range []Solver{SolverPPM, SolverFD} {
		for _, nsp := range []int{0, 12} {
			for _, n := range []int{1, 2, 3, 8, 17} {
				for _, shape := range [][3]int{{n, 5, 3}, {4, n, 2}, {3, 2, n}} {
					for _, bc := range []func(*State){nil, periodic} {
						what := fmt.Sprintf("%v nsp=%d shape=%v periodic=%v", solver, nsp, shape, bc != nil)
						nx, ny, nz := shape[0], shape[1], shape[2]
						taps := func() []*FluxTap {
							return []*FluxTap{
								NewFluxTap(0, nx/2, 0, ny, 0, nz, nsp),
								NewFluxTap(1, ny, 1, nx, 0, nz, nsp),
								NewFluxTap(2, 0, 0, nx, ny/2, ny, nsp),
							}
						}
						regW, regG := NewFluxRegister(nx, ny, nz, nsp), NewFluxRegister(nx, ny, nz, nsp)
						tapW, tapG := taps(), taps()
						dx := 1.0 / float64(max(nx, ny, nz))
						dt := 0.1 * dx
						// One step per sweep order, each from a fresh state: the
						// parent's ghost writes are never read within a step,
						// and the AMR driver refills every ghost between steps.
						for parity := 0; parity < 2; parity++ {
							want := awkwardState(rng, nx, ny, nz, nsp)
							got := want.Clone()
							parentStep3D(want, dx, dt, p, solver, parity, bc, regW, tapW)
							Step3D(got, dx, dt, p, solver, parity, bc, regG, tapG)
							requireActiveSameBits(t, fmt.Sprintf("%s parity=%d", what, parity), want, got)
						}
						for f := range regW.Face {
							requireTapSameBits(t, fmt.Sprintf("%s register face %d", what, f), regW.Face[f], regG.Face[f])
						}
						for i := range tapW {
							requireTapSameBits(t, fmt.Sprintf("%s tap %d", what, i), tapW[i], tapG[i])
						}
					}
				}
			}
		}
	}
}

// TestTimestepMatchesParent: the row-wise CFL scan returns the per-cell
// walk's dt bit for bit on non-cubic grids with awkward values mixed in.
func TestTimestepMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := DefaultParams()
	for _, shape := range [][3]int{{1, 1, 1}, {5, 3, 2}, {2, 7, 4}, {17, 8, 3}} {
		for it := 0; it < 50; it++ {
			s := awkwardState(rng, shape[0], shape[1], shape[2], 0)
			dx := rng.Float64()
			if got, want := Timestep(s, dx, p), parentTimestep(s, dx, p); !sameBits(got, want) {
				t.Fatalf("shape %v: Timestep %x, per-cell walk %x", shape, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// requireActiveSameBits compares every active cell of every field bit for
// bit, and fails when fewer than half of a field's active cells are finite
// on both sides: a NaN equals itself bitwise, so a state the NaNs have
// overrun would pass while comparing nothing.
func requireActiveSameBits(t *testing.T, what string, want, got *State) {
	t.Helper()
	gf := got.Fields()
	for fi, f := range want.Fields() {
		finite := 0
		for k := 0; k < f.Nz; k++ {
			for j := 0; j < f.Ny; j++ {
				for i := 0; i < f.Nx; i++ {
					w, g := f.At(i, j, k), gf[fi].At(i, j, k)
					if !sameBits(w, g) {
						t.Fatalf("%s: field %d cell (%d,%d,%d): parent %x, got %x", what, fi, i, j, k, math.Float64bits(w), math.Float64bits(g))
					}
					if !math.IsNaN(w) && !math.IsInf(w, 0) {
						finite++
					}
				}
			}
		}
		if n := f.Nx * f.Ny * f.Nz; 2*finite < n {
			t.Fatalf("%s: field %d: only %d of %d active cells finite", what, fi, finite, n)
		}
	}
}

func requireTapSameBits(t *testing.T, what string, want, got *FluxTap) {
	t.Helper()
	for q := range want.Data {
		for i, w := range want.Data[q] {
			if g := got.Data[q][i]; !sameBits(w, g) {
				t.Fatalf("%s: field %d entry %d: parent %x, got %x", what, q, i, w, g)
			}
		}
	}
}
