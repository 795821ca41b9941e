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

// TestHLLCPencilMatchesParent pins hllcPencil to the parent's
// per-interface parentHLLC plus the parent's passive upwind rule, region
// by region, by construction: every interface row — the four conserved
// fluxes, energy, uStar, the internal-energy flux and each species flux —
// bit for bit. The constructed states land in the supersonic left
// (sL ≥ 0) and right (sR ≤ 0) fans, the left and right star regions, the
// contact exactly at rest (sStar = 0), and at the density and pressure
// floors; a batch of random states follows. Each runs with 0 and 12
// species, and every region must be hit.
func TestHLLCPencilMatchesParent(t *testing.T) {
	type side struct{ rho, u, v, w, p float64 }
	type pair struct {
		name, region string // region is empty for random draws
		l, r         side
	}
	// Densities and pressures below zero are floored to FloorRho and
	// (γ-1)·FloorRho·FloorEint before the solve.
	cases := []pair{
		{"supersonic left", "left fan", side{1, 5, 0.3, -0.2, 1}, side{0.5, 4.5, -0.1, 0.4, 0.7}},
		{"supersonic right", "right fan", side{0.5, -4.5, 0.2, 0.1, 0.7}, side{1, -5, -0.3, 0.2, 1}},
		{"star left", "left star", side{1, 0.5, 0.25, -0.5, 1}, side{0.125, 0.5, -0.75, 0.125, 0.1}},
		{"star right", "right star", side{0.125, -0.5, 0.5, 0.25, 0.1}, side{1, -0.5, -0.125, 0.75, 1}},
		{"contact at rest", "left star", side{1, 0, 0.5, 0, 1}, side{1, 0, -0.5, 0.25, 1}},
		{"floored left, left fan", "left fan", side{-1, 5, 0.1, 0.1, -0.5}, side{1, 5, 0.2, -0.1, 1}},
		{"floored right, right fan", "right fan", side{1, -5, 0.2, -0.1, 1}, side{-0.25, -5, 0.1, 0.1, -2}},
		{"floored left, right star", "right star", side{-1, 0.2, 0.1, 0.1, -0.5}, side{1, 0.1, 0.2, -0.1, 1}},
		{"floored right, left star", "left star", side{1, -0.1, 0.2, -0.1, 1}, side{-0.25, -0.2, 0.1, 0.1, -2}},
		{"floored both", "left star", side{-1, 0, 0, 0, -1}, side{0, 0, 0, 0, 0}},
		{"near-vacuum left", "right star", side{1e-30, 1, 0, 0, 1e-30}, side{1, 0, 0, 0, 1}},
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 64; i++ {
		draw := func() side {
			return side{1 + 3*rng.Float64(), 4*rng.Float64() - 2, rng.Float64() - 0.5, rng.Float64() - 0.5, 0.1 + 2*rng.Float64()}
		}
		cases = append(cases, pair{fmt.Sprintf("random %d", i), "", draw(), draw()})
	}
	p := DefaultParams()
	gamma := p.Gamma
	floorP := (gamma - 1) * p.FloorRho * p.FloorEint
	for _, nsp := range []int{0, 12} {
		pc := newPencil(len(cases)-1, NGhost, nsp)
		lo, hi := pc.ng, pc.ng+pc.n
		for f := range pc.fMass {
			for _, row := range append([][]float64{pc.fMass, pc.fMomU, pc.fMomV, pc.fMomW, pc.fE, pc.fEint, pc.uStar}, pc.fSpecies...) {
				row[f] = math.NaN()
			}
		}
		for ci, c := range cases {
			f := lo + ci
			for i, v := range []float64{c.l.rho, c.l.u, c.l.v, c.l.w, c.l.p, 0.5 + rng.Float64()} {
				pc.stL[i][f] = v
			}
			for i, v := range []float64{c.r.rho, c.r.u, c.r.v, c.r.w, c.r.p, 0.5 + rng.Float64()} {
				pc.stR[i][f] = v
			}
			for sp := 0; sp < nsp; sp++ {
				pc.stL[6+sp][f] = 0.1 * rng.Float64() * c.l.rho
				pc.stR[6+sp][f] = 0.1 * rng.Float64() * c.r.rho
			}
		}
		hllcPencil(pc, lo, hi, p)

		regions := map[string]int{}
		for ci, c := range cases {
			f := lo + ci
			st := iface{
				rhoL: max(pc.stL[0][f], p.FloorRho), uL: pc.stL[1][f], vL: pc.stL[2][f], wL: pc.stL[3][f], pL: max(pc.stL[4][f], floorP),
				rhoR: max(pc.stR[0][f], p.FloorRho), uR: pc.stR[1][f], vR: pc.stR[2][f], wR: pc.stR[3][f], pR: max(pc.stR[4][f], floorP),
			}
			region := hllcRegion(st, gamma)
			if c.region != "" && region != c.region {
				t.Fatalf("%s lands in the %s region, want %s", c.name, region, c.region)
			}
			regions[region]++
			want := parentHLLC(st, gamma)
			eintUp, rhoUp, stUp := pc.stL[5][f], st.rhoL, pc.stL
			if want.upwind < 0 {
				eintUp, rhoUp, stUp = pc.stR[5][f], st.rhoR, pc.stR
			}
			rows := []struct {
				name      string
				want, got float64
			}{
				{"mass", want.mass, pc.fMass[f]},
				{"momU", want.momU, pc.fMomU[f]},
				{"momV", want.momV, pc.fMomV[f]},
				{"momW", want.momW, pc.fMomW[f]},
				{"energy", want.energy, pc.fE[f]},
				{"uStar", want.uStar, pc.uStar[f]},
				{"eint", want.mass * eintUp, pc.fEint[f]},
			}
			for sp := 0; sp < nsp; sp++ {
				rows = append(rows, struct {
					name      string
					want, got float64
				}{fmt.Sprintf("species %d", sp), want.mass * (stUp[6+sp][f] / rhoUp), pc.fSpecies[sp][f]})
			}
			for _, r := range rows {
				if !sameBits(r.want, r.got) {
					t.Fatalf("nsp=%d %s (interface %d): %s flux %v, parent %v", nsp, c.name, f, r.name, r.got, r.want)
				}
			}
		}
		for _, r := range []string{"left fan", "right fan", "left star", "right star"} {
			if regions[r] == 0 {
				t.Fatalf("nsp=%d: no interface in the %s region (%v)", nsp, r, regions)
			}
		}
	}
}

// hllcRegion names the HLLC wave region an interface's flux is built on,
// by the parent's wave-speed estimates.
func hllcRegion(s iface, gamma float64) string {
	cL := math.Sqrt(gamma * s.pL / s.rhoL)
	cR := math.Sqrt(gamma * s.pR / s.rhoR)
	sL := min(s.uL-cL, s.uR-cR)
	sR := max(s.uL+cL, s.uR+cR)
	switch {
	case sL >= 0:
		return "left fan"
	case sR <= 0:
		return "right fan"
	}
	num := s.pR - s.pL + s.rhoL*s.uL*(sL-s.uL) - s.rhoR*s.uR*(sR-s.uR)
	den := s.rhoL*(sL-s.uL) - s.rhoR*(sR-s.uR)
	if den != 0 && !(num/den >= 0) {
		return "right star"
	}
	return "left star"
}
