package hydro

import (
	"math"
	"testing"
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
