package hydro

import "testing"

// oracleRegister is the flux register as it was before its faces became
// FluxTaps: per-face [field][transverseCell] slabs with the stride rule
// spelled out in accumulateRegister.
type oracleRegister struct {
	Nx, Ny int
	Face   [6][][]float64
}

// accumulateRegister is the pre-FluxTap accumulation, kept verbatim as the
// oracle for TestRegisterFacesMatchOracle.
func accumulateRegister(reg *oracleRegister, dir, c1, c2 int, pc *pencil, dt float64) {
	fLow := pc.ng // interface at the low active face
	fHigh := pc.ng + pc.n
	var faceLow, faceHigh, tIdx int
	switch dir {
	case 0:
		faceLow, faceHigh = 0, 1
		tIdx = c1 + reg.Ny*c2
	case 1:
		faceLow, faceHigh = 2, 3
		tIdx = c1 + reg.Nx*c2
	case 2:
		faceLow, faceHigh = 4, 5
		tIdx = c1 + reg.Nx*c2
	}
	add := func(face, f int) {
		reg.Face[face][FluxMass][tIdx] += dt * pc.fMass[f]
		var mx, my, mz float64
		switch dir {
		case 0:
			mx, my, mz = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		case 1:
			my, mz, mx = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		case 2:
			mz, mx, my = pc.fMomU[f], pc.fMomV[f], pc.fMomW[f]
		}
		reg.Face[face][FluxMomX][tIdx] += dt * mx
		reg.Face[face][FluxMomY][tIdx] += dt * my
		reg.Face[face][FluxMomZ][tIdx] += dt * mz
		reg.Face[face][FluxEnergy][tIdx] += dt * pc.fE[f]
		for sp := range pc.fSpecies {
			reg.Face[face][FluxNumBase+sp][tIdx] += dt * pc.fSpecies[sp][f]
		}
	}
	add(faceLow, fLow)
	add(faceHigh, fHigh)
}

// oracleSweep is sweep's serial body feeding the oracle register.
func oracleSweep(s *State, dir int, dx, dt float64, prm Params, solver Solver, reg *oracleRegister) {
	n := [3]int{s.Rho.Nx, s.Rho.Ny, s.Rho.Nz}
	n1, n2 := [3]int{n[1], n[0], n[0]}[dir], [3]int{n[2], n[2], n[1]}[dir]
	pc := getPencil(n[dir], s.Rho.Ng, len(s.Species))
	defer putPencil(pc)
	for line := 0; line < n1*n2; line++ {
		c1, c2 := line%n1, line/n1
		gatherPencil(s, dir, c1, c2, pc, prm)
		computeFluxes(pc, prm, solver, dt/dx)
		updatePencil(pc, prm, dt/dx)
		scatterPencil(s, dir, c1, c2, pc)
		accumulateRegister(reg, dir, c1, c2, pc, dt)
	}
}

// TestRegisterFacesMatchOracle: a register whose faces are FluxTaps fed
// through accumulateTaps holds, bit for bit, what the dedicated
// accumulateRegister path wrote — every face, every field including
// species, after x, y and z sweeps, at 1/2/4 workers. The grid is
// 12x10x8 so a transposed stride cannot pass.
func TestRegisterFacesMatchOracle(t *testing.T) {
	const nx, ny, nz, nsp = 12, 10, 8, 2
	init := NewState(nx, ny, nz, nsp)
	src := randomishState(nx, nsp)
	for fi, f := range init.Fields() {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					f.Set(i, j, k, src.Fields()[fi].At(i, j, k))
				}
			}
		}
		f.ApplyPeriodicBC()
	}
	p := DefaultParams()
	dx := 1.0 / nx
	dt := 0.2 * Timestep(init, dx, p)
	sizes := [6]int{ny * nz, ny * nz, nx * nz, nx * nz, nx * ny, nx * ny}
	for _, workers := range []int{1, 2, 4} {
		want := &oracleRegister{Nx: nx, Ny: ny}
		for f := range want.Face {
			want.Face[f] = make([][]float64, FluxNumBase+nsp)
			for q := range want.Face[f] {
				want.Face[f][q] = make([]float64, sizes[f])
			}
		}
		got := NewFluxRegister(nx, ny, nz, nsp)
		so, sn := init.Clone(), init.Clone()
		p.Workers = workers
		for dir := 0; dir < 3; dir++ {
			oracleSweep(so, dir, dx, dt, p, SolverPPM, want)
			sweep(sn, dir, dx, dt, p, SolverPPM, got, nil)
		}
		for f := range want.Face {
			if len(got.Face[f].Data) != len(want.Face[f]) {
				t.Fatalf("face %d: %d fields, want %d", f, len(got.Face[f].Data), len(want.Face[f]))
			}
			nonzero := false
			for q := range want.Face[f] {
				if len(got.Face[f].Data[q]) != sizes[f] {
					t.Fatalf("face %d field %d: %d entries, want %d", f, q, len(got.Face[f].Data[q]), sizes[f])
				}
				for i, v := range want.Face[f][q] {
					if got.Face[f].Data[q][i] != v {
						t.Fatalf("workers %d face %d field %d idx %d: %v, oracle %v", workers, f, q, i, got.Face[f].Data[q][i], v)
					}
					nonzero = nonzero || v != 0
				}
			}
			if !nonzero {
				t.Fatalf("face %d recorded no flux: the comparison is vacuous", f)
			}
		}
	}
}
