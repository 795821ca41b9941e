package hydro

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

// randomishState fills an n³ state (with nsp species) with a smooth but
// asymmetric pattern so every pencil sees distinct data.
func randomishState(n, nsp int) *State {
	s := NewState(n, n, n, nsp)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := float64(i) / float64(n)
				y := float64(j) / float64(n)
				z := float64(k) / float64(n)
				rho := 1 + 0.4*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*(y+2*z))
				s.Rho.Set(i, j, k, rho)
				s.Vx.Set(i, j, k, 0.3*math.Sin(2*math.Pi*(x+y)))
				s.Vy.Set(i, j, k, -0.2*math.Cos(2*math.Pi*(y+z)))
				s.Vz.Set(i, j, k, 0.1*math.Sin(2*math.Pi*(z+x)))
				ei := 1.5 + 0.5*math.Cos(2*math.Pi*(x-y))
				s.Eint.Set(i, j, k, ei)
				vx, vy, vz := s.Vx.At(i, j, k), s.Vy.At(i, j, k), s.Vz.At(i, j, k)
				s.Etot.Set(i, j, k, ei+0.5*(vx*vx+vy*vy+vz*vz))
				for sp := 0; sp < nsp; sp++ {
					s.Species[sp].Set(i, j, k, rho*(0.1+0.05*float64(sp)))
				}
			}
		}
	}
	return s
}

// TestStep3DParallelBitwise verifies the tentpole invariant: the parallel
// pencil sweep is bitwise identical to the serial one — pencils are
// independent lines, so worker count must not change a single bit of the
// state, the flux registers, or the flux taps.
func TestStep3DParallelBitwise(t *testing.T) {
	const n = 16
	const nsp = 2
	for _, solver := range []Solver{SolverPPM, SolverFD} {
		serial := randomishState(n, nsp)
		parallel := serial.Clone()

		p := DefaultParams()
		dt := 0.2 * Timestep(serial, 1.0/n, p)
		bc := func(s *State) {
			for _, f := range s.Fields() {
				f.ApplyPeriodicBC()
			}
		}
		regS := NewFluxRegister(n, n, n, nsp)
		regP := NewFluxRegister(n, n, n, nsp)
		tapS := []*FluxTap{NewFluxTap(0, 4, 2, 10, 3, 12, nsp), NewFluxTap(2, 8, 0, n, 0, n, nsp)}
		tapP := []*FluxTap{NewFluxTap(0, 4, 2, 10, 3, 12, nsp), NewFluxTap(2, 8, 0, n, 0, n, nsp)}

		for step := 0; step < 2; step++ {
			pSer := p
			pSer.Workers = 1
			Step3D(serial, 1.0/n, dt, pSer, solver, step, bc, regS, tapS)
			pPar := p
			pPar.Workers = 8
			Step3D(parallel, 1.0/n, dt, pPar, solver, step, bc, regP, tapP)
		}

		fs, fp := serial.Fields(), parallel.Fields()
		for fi := range fs {
			for idx, v := range fs[fi].Data {
				if pv := fp[fi].Data[idx]; pv != v {
					t.Fatalf("%v: field %d differs at %d: serial %v parallel %v", solver, fi, idx, v, pv)
				}
			}
		}
		for f := 0; f < 6; f++ {
			for q := range regS.Face[f].Data {
				for i, v := range regS.Face[f].Data[q] {
					if regP.Face[f].Data[q][i] != v {
						t.Fatalf("%v: flux register face %d field %d idx %d differs", solver, f, q, i)
					}
				}
			}
		}
		for ti := range tapS {
			for q := range tapS[ti].Data {
				for i, v := range tapS[ti].Data[q] {
					if tapP[ti].Data[q][i] != v {
						t.Fatalf("%v: tap %d field %d idx %d differs", solver, ti, q, i)
					}
				}
			}
		}
	}
}

// TestKickGravityParallelBitwise holds the row-wise, k-plane-parallel kick
// to the per-cell At/Set form it replaced, at every worker count; the
// acceleration fields carry a ghost depth of their own, not the state's.
func TestKickGravityParallelBitwise(t *testing.T) {
	const n = 12
	const dt = 0.37
	var g [3]*mesh.Field3
	for d := range g {
		g[d] = mesh.NewField3(n, n, n, 1)
		for idx := range g[d].Data {
			g[d].Data[idx] = math.Sin(float64(idx*(d+2))) + 0.1*float64(d)
		}
	}
	want := randomishState(n, 0)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				ax, ay, az := g[0].At(i, j, k), g[1].At(i, j, k), g[2].At(i, j, k)
				vx, vy, vz := want.Vx.At(i, j, k), want.Vy.At(i, j, k), want.Vz.At(i, j, k)
				nvx, nvy, nvz := vx+ax*dt, vy+ay*dt, vz+az*dt
				want.Vx.Set(i, j, k, nvx)
				want.Vy.Set(i, j, k, nvy)
				want.Vz.Set(i, j, k, nvz)
				want.Etot.Add(i, j, k, 0.5*(nvx*nvx+nvy*nvy+nvz*nvz-vx*vx-vy*vy-vz*vz))
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		got := randomishState(n, 0)
		KickGravity(got, g[0], g[1], g[2], dt, workers)
		fw, fg := want.Fields(), got.Fields()
		for fi := range fw {
			for idx, v := range fw[fi].Data {
				if fg[fi].Data[idx] != v {
					t.Fatalf("workers=%d field %d differs at %d: per-cell %v, got %v", workers, fi, idx, v, fg[fi].Data[idx])
				}
			}
		}
	}
}
