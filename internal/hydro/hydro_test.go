package hydro

import (
	"math"
	"testing"
)

// fillUniform sets a constant state everywhere (including ghosts).
func fillUniform(s *State, rho, vx, vy, vz, eint float64) {
	s.Rho.Fill(rho)
	s.Vx.Fill(vx)
	s.Vy.Fill(vy)
	s.Vz.Fill(vz)
	s.Eint.Fill(eint)
	for i := range s.Etot.Data {
		s.Etot.Data[i] = eint + 0.5*(vx*vx+vy*vy+vz*vz)
	}
}

func periodicBC(s *State) {
	for _, f := range s.Fields() {
		f.ApplyPeriodicBC()
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.Gamma = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("gamma<1 should fail")
	}
	bad = DefaultParams()
	bad.CFL = 0
	if err := bad.Validate(); err == nil {
		t.Error("CFL=0 should fail")
	}
}

func TestUniformStateIsSteady(t *testing.T) {
	for _, solver := range []Solver{SolverPPM, SolverFD} {
		p := DefaultParams()
		s := NewState(8, 8, 8, 1)
		fillUniform(s, 1.0, 0.3, -0.2, 0.1, 2.0)
		s.Species[0].Fill(0.25)
		dt := Timestep(s, 1.0/8, p)
		for step := 0; step < 3; step++ {
			Step3D(s, 1.0/8, dt, p, solver, step, periodicBC, nil, nil)
		}
		for k := 0; k < 8; k++ {
			for j := 0; j < 8; j++ {
				for i := 0; i < 8; i++ {
					if math.Abs(s.Rho.At(i, j, k)-1) > 1e-12 {
						t.Fatalf("%v: uniform density perturbed at (%d,%d,%d): %v", solver, i, j, k, s.Rho.At(i, j, k))
					}
					if math.Abs(s.Vx.At(i, j, k)-0.3) > 1e-12 {
						t.Fatalf("%v: uniform vx perturbed: %v", solver, s.Vx.At(i, j, k))
					}
					if math.Abs(s.Species[0].At(i, j, k)-0.25) > 1e-12 {
						t.Fatalf("%v: uniform species perturbed", solver)
					}
				}
			}
		}
	}
}

func TestMassConservationPeriodic(t *testing.T) {
	for _, solver := range []Solver{SolverPPM, SolverFD} {
		p := DefaultParams()
		n := 16
		s := NewState(n, n, n, 0)
		fillUniform(s, 1.0, 0, 0, 0, 1.0)
		// Gaussian density + pressure pulse.
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					dx := float64(i-n/2) / float64(n)
					dy := float64(j-n/2) / float64(n)
					dz := float64(k-n/2) / float64(n)
					r2 := dx*dx + dy*dy + dz*dz
					s.Rho.Set(i, j, k, 1+2*math.Exp(-r2*50))
					s.Eint.Set(i, j, k, 1+3*math.Exp(-r2*50))
					s.Etot.Set(i, j, k, s.Eint.At(i, j, k))
				}
			}
		}
		periodicBC(s)
		dxCell := 1.0 / float64(n)
		m0 := s.TotalMass(dxCell)
		e0 := s.TotalEnergy(dxCell)
		for step := 0; step < 8; step++ {
			dt := Timestep(s, dxCell, p)
			Step3D(s, dxCell, dt, p, solver, step, periodicBC, nil, nil)
		}
		m1 := s.TotalMass(dxCell)
		e1 := s.TotalEnergy(dxCell)
		if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
			t.Errorf("%v: mass drift %e", solver, rel)
		}
		if rel := math.Abs(e1-e0) / e0; rel > 1e-10 {
			t.Errorf("%v: energy drift %e", solver, rel)
		}
	}
}

// sodInit sets the classic Sod (1978) shock tube along x.
func sodInit(s *State, gamma float64) {
	n := s.Rho.Nx
	for k := 0; k < s.Rho.Nz; k++ {
		for j := 0; j < s.Rho.Ny; j++ {
			for i := -NGhost; i < n+NGhost; i++ {
				rho, p := 1.0, 1.0
				if i >= n/2 {
					rho, p = 0.125, 0.1
				}
				e := p / ((gamma - 1) * rho)
				s.Rho.Set(i, j, k, rho)
				s.Eint.Set(i, j, k, e)
				s.Etot.Set(i, j, k, e)
			}
		}
	}
}

func outflowBC(s *State) {
	for _, f := range s.Fields() {
		f.ApplyOutflowBC()
	}
}

func TestSodShockTube(t *testing.T) {
	// Run to t=0.2 on a 128-cell tube and compare with the exact Riemann
	// solution at selected points: post-shock density ~0.2656, contact
	// density ~0.4263 for the standard Sod setup (gamma=1.4).
	for _, solver := range []Solver{SolverPPM, SolverFD} {
		p := DefaultParams()
		p.Gamma = 1.4
		n := 128
		s := NewState(n, 4, 4, 0)
		s.Vx.Fill(0)
		s.Vy.Fill(0)
		s.Vz.Fill(0)
		sodInit(s, p.Gamma)
		dxCell := 1.0 / float64(n)
		tEnd := 0.2
		tNow := 0.0
		step := 0
		for tNow < tEnd {
			dt := Timestep(s, dxCell, p)
			if tNow+dt > tEnd {
				dt = tEnd - tNow
			}
			Step3D(s, dxCell, dt, p, solver, step, outflowBC, nil, nil)
			tNow += dt
			step++
		}
		// Sample the mid-plane profile.
		at := func(i int) float64 { return s.Rho.At(i, 2, 2) }
		// Exact solution landmarks at t=0.2 (x0=0.5):
		// rarefaction tail x~0.485, contact x~0.685, shock x~0.850.
		// Post-shock plateau (x in [0.7,0.84]) density = 0.2656.
		postShock := at(int(0.78 * float64(n)))
		if math.Abs(postShock-0.2656) > 0.03 {
			t.Errorf("%v: post-shock density %v, want ~0.2656", solver, postShock)
		}
		// Between contact and shock lies the denser plateau 0.4263
		// on the left of the contact? (left of contact: 0.4263)
		contactLeft := at(int(0.60 * float64(n)))
		if math.Abs(contactLeft-0.4263) > 0.04 {
			t.Errorf("%v: contact-left density %v, want ~0.4263", solver, contactLeft)
		}
		// Undisturbed ends.
		if math.Abs(at(2)-1.0) > 1e-6 {
			t.Errorf("%v: left end disturbed: %v", solver, at(2))
		}
		if math.Abs(at(n-3)-0.125) > 1e-6 {
			t.Errorf("%v: right end disturbed: %v", solver, at(n-3))
		}
		// Monotonic shock: no negative densities anywhere.
		for i := 0; i < n; i++ {
			if at(i) <= 0 {
				t.Fatalf("%v: non-positive density at %d", solver, i)
			}
		}
	}
}

func TestSodSymmetryAcrossDirections(t *testing.T) {
	// The same 1-D problem run along x, y, z must give identical profiles
	// (dimensional splitting must not break axis symmetry for 1-D data).
	p := DefaultParams()
	p.Gamma = 1.4
	n := 64
	run := func(dir int) []float64 {
		var s *State
		switch dir {
		case 0:
			s = NewState(n, 4, 4, 0)
		case 1:
			s = NewState(4, n, 4, 0)
		case 2:
			s = NewState(4, 4, n, 0)
		}
		for k := -NGhost; k < s.Rho.Nz+NGhost; k++ {
			for j := -NGhost; j < s.Rho.Ny+NGhost; j++ {
				for i := -NGhost; i < s.Rho.Nx+NGhost; i++ {
					a := i
					if dir == 1 {
						a = j
					} else if dir == 2 {
						a = k
					}
					rho, pr := 1.0, 1.0
					if a >= n/2 {
						rho, pr = 0.125, 0.1
					}
					e := pr / ((p.Gamma - 1) * rho)
					s.Rho.Set(i, j, k, rho)
					s.Eint.Set(i, j, k, e)
					s.Etot.Set(i, j, k, e)
				}
			}
		}
		dxCell := 1.0 / float64(n)
		tNow := 0.0
		step := 0
		for tNow < 0.1 {
			dt := Timestep(s, dxCell, p)
			if tNow+dt > 0.1 {
				dt = 0.1 - tNow
			}
			Step3D(s, dxCell, dt, p, SolverPPM, step, outflowBC, nil, nil)
			tNow += dt
			step++
		}
		out := make([]float64, n)
		for a := 0; a < n; a++ {
			switch dir {
			case 0:
				out[a] = s.Rho.At(a, 2, 2)
			case 1:
				out[a] = s.Rho.At(2, a, 2)
			case 2:
				out[a] = s.Rho.At(2, 2, a)
			}
		}
		return out
	}
	px := run(0)
	py := run(1)
	pz := run(2)
	for i := 0; i < n; i++ {
		if math.Abs(px[i]-py[i]) > 1e-11 || math.Abs(px[i]-pz[i]) > 1e-11 {
			t.Fatalf("direction asymmetry at %d: x=%v y=%v z=%v", i, px[i], py[i], pz[i])
		}
	}
}

func TestPPMSharperThanFD(t *testing.T) {
	// PPM must resolve the Sod contact discontinuity more sharply than
	// the diffusive FD solver: count cells spanning the contact jump.
	p := DefaultParams()
	p.Gamma = 1.4
	n := 128
	width := func(solver Solver) float64 {
		s := NewState(n, 4, 4, 0)
		sodInit(s, p.Gamma)
		dxCell := 1.0 / float64(n)
		tNow := 0.0
		step := 0
		for tNow < 0.2 {
			dt := Timestep(s, dxCell, p)
			if tNow+dt > 0.2 {
				dt = 0.2 - tNow
			}
			Step3D(s, dxCell, dt, p, solver, step, outflowBC, nil, nil)
			tNow += dt
			step++
		}
		// Contact: density drops 0.4263 -> 0.2656 around x~0.685. A
		// sharper scheme has a steeper maximum gradient in that window.
		steep := 0.0
		for i := n / 2; i < int(0.8*float64(n))-1; i++ {
			if g := math.Abs(s.Rho.At(i+1, 2, 2) - s.Rho.At(i, 2, 2)); g > steep {
				steep = g
			}
		}
		return steep
	}
	wPPM := width(SolverPPM)
	wFD := width(SolverFD)
	if wPPM <= wFD {
		t.Errorf("PPM contact steepness %v not sharper than FD %v", wPPM, wFD)
	}
}

func TestSpeciesAdvection(t *testing.T) {
	// A passive species advected by uniform flow moves with the flow and
	// conserves total species mass.
	p := DefaultParams()
	n := 32
	s := NewState(n, 4, 4, 1)
	fillUniform(s, 1.0, 1.0, 0, 0, 100.0) // very subsonic flow (smooth advection)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				s.Species[0].Set(i, j, k, 0.5+0.4*math.Sin(2*math.Pi*x))
			}
		}
	}
	periodicBC(s)
	dxCell := 1.0 / float64(n)
	total0 := s.Species[0].SumActive()
	// Advect for one full crossing time (t=1).
	tNow := 0.0
	step := 0
	for tNow < 1.0 {
		dt := Timestep(s, dxCell, p)
		if tNow+dt > 1.0 {
			dt = 1.0 - tNow
		}
		Step3D(s, dxCell, dt, p, SolverPPM, step, periodicBC, nil, nil)
		tNow += dt
		step++
	}
	total1 := s.Species[0].SumActive()
	if math.Abs(total1-total0)/total0 > 1e-10 {
		t.Errorf("species mass drift: %v -> %v", total0, total1)
	}
	// After one period the profile should be close to the initial one.
	var errSum float64
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) / float64(n)
		want := 0.5 + 0.4*math.Sin(2*math.Pi*x)
		errSum += math.Abs(s.Species[0].At(i, 2, 2) - want)
	}
	if errSum/float64(n) > 0.1 {
		t.Errorf("species advection error too large: %v", errSum/float64(n))
	}
}

func TestExpansionCooling(t *testing.T) {
	// ApplyExpansion must decay velocities as exp(-H dt) and internal
	// energy as exp(-2 H dt).
	s := NewState(4, 4, 4, 0)
	fillUniform(s, 1, 1.0, 0, 0, 2.0)
	ApplyExpansion(s, 0.5, 1.0)
	wantV := math.Exp(-0.5)
	wantE := 2 * math.Exp(-1.0)
	if math.Abs(s.Vx.At(1, 1, 1)-wantV) > 1e-14 {
		t.Errorf("velocity decay %v, want %v", s.Vx.At(1, 1, 1), wantV)
	}
	if math.Abs(s.Eint.At(1, 1, 1)-wantE) > 1e-14 {
		t.Errorf("energy decay %v, want %v", s.Eint.At(1, 1, 1), wantE)
	}
	// Etot rebuilt consistently.
	wantTot := 0.5*wantV*wantV + wantE
	if math.Abs(s.Etot.At(2, 2, 2)-wantTot) > 1e-14 {
		t.Errorf("etot %v, want %v", s.Etot.At(2, 2, 2), wantTot)
	}
}

func TestKickGravity(t *testing.T) {
	s := NewState(4, 4, 4, 0)
	fillUniform(s, 1, 0.5, 0, 0, 1.0)
	gx := s.Rho.Clone()
	gx.Fill(2.0)
	gy := s.Rho.Clone()
	gy.Fill(0)
	gz := gy.Clone()
	KickGravity(s, gx, gy, gz, 0.25, 1)
	if math.Abs(s.Vx.At(0, 0, 0)-1.0) > 1e-14 {
		t.Errorf("vx after kick %v, want 1.0", s.Vx.At(0, 0, 0))
	}
	// Total energy consistent: etot = eint + v^2/2.
	want := 1.0 + 0.5
	if math.Abs(s.Etot.At(1, 1, 1)-want) > 1e-14 {
		t.Errorf("etot after kick %v, want %v", s.Etot.At(1, 1, 1), want)
	}
}

func TestTimestepScaling(t *testing.T) {
	p := DefaultParams()
	s := NewState(8, 8, 8, 0)
	fillUniform(s, 1, 0, 0, 0, 1.0)
	dt1 := Timestep(s, 1.0/8, p)
	dt2 := Timestep(s, 1.0/16, p)
	if math.Abs(dt1/dt2-2) > 1e-12 {
		t.Errorf("timestep not proportional to dx: %v vs %v", dt1, dt2)
	}
	// Faster gas -> smaller timestep.
	fillUniform(s, 1, 10, 0, 0, 1.0)
	dt3 := Timestep(s, 1.0/8, p)
	if dt3 >= dt1 {
		t.Errorf("timestep did not shrink with velocity")
	}
}

func TestFluxRegisterAccumulation(t *testing.T) {
	// Uniform rightward flow: the x faces must record mass flux rho*u*dt,
	// and opposite faces must match (what enters leaves).
	p := DefaultParams()
	n := 8
	s := NewState(n, n, n, 0)
	fillUniform(s, 2.0, 0.5, 0, 0, 10.0)
	reg := NewFluxRegister(n, n, n, 0)
	dt := 0.001
	Step3D(s, 1.0/float64(n), dt, p, SolverPPM, 0, periodicBC, reg, nil)
	want := 2.0 * 0.5 * dt
	for idx := 0; idx < n*n; idx++ {
		got := reg.Face[0].Data[FluxMass][idx]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("x- face mass flux %v, want %v", got, want)
		}
		if math.Abs(reg.Face[1].Data[FluxMass][idx]-want) > 1e-12 {
			t.Fatalf("x+ face mass flux mismatch")
		}
		// No flow in y/z.
		if math.Abs(reg.Face[2].Data[FluxMass][idx]) > 1e-12 {
			t.Fatalf("spurious y-face mass flux")
		}
	}
	reg.Zero()
	for f := 0; f < 6; f++ {
		for q := range reg.Face[f].Data {
			for _, v := range reg.Face[f].Data[q] {
				if v != 0 {
					t.Fatal("Zero() left residue")
				}
			}
		}
	}
}

func TestSolverString(t *testing.T) {
	if SolverPPM.String() != "ppm" || SolverFD.String() != "fd" {
		t.Error("Solver.String broken")
	}
	if Solver(99).String() != "unknown" {
		t.Error("unknown solver string")
	}
}

func BenchmarkStep3DPPM32(b *testing.B) {
	p := DefaultParams()
	s := NewState(32, 32, 32, 0)
	fillUniform(s, 1, 0.1, 0, 0, 1.0)
	periodicBC(s)
	dt := Timestep(s, 1.0/32, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Step3D(s, 1.0/32, dt, p, SolverPPM, i, periodicBC, nil, nil)
	}
}

func BenchmarkStep3DFD32(b *testing.B) {
	p := DefaultParams()
	s := NewState(32, 32, 32, 0)
	fillUniform(s, 1, 0.1, 0, 0, 1.0)
	periodicBC(s)
	dt := Timestep(s, 1.0/32, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Step3D(s, 1.0/32, dt, p, SolverFD, i, periodicBC, nil, nil)
	}
}
