package nbody

import (
	"math"
	"testing"

	"repro/internal/ep128"
	"repro/internal/gravity"
	"repro/internal/mesh"
)

func geomUnit(n int) GridGeom {
	return GridGeom{Dx: 1.0 / float64(n)}
}

func TestAddAndValidate(t *testing.T) {
	p := New(4)
	p.Add(ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), 0, 0, 0, 1, 1)
	if p.Len() != 1 {
		t.Fatal("Len != 1")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Mass[0] = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative mass should fail validation")
	}
}

func TestDepositConservesMass(t *testing.T) {
	n := 8
	rho := mesh.NewField3(n, n, n, 2)
	p := New(10)
	// Particles at assorted positions, including near edges.
	pos := [][3]float64{{0.5, 0.5, 0.5}, {0.1, 0.9, 0.3}, {0.01, 0.01, 0.99}, {0.66, 0.33, 0.25}}
	for i, q := range pos {
		p.Add(ep128.FromFloat64(q[0]), ep128.FromFloat64(q[1]), ep128.FromFloat64(q[2]),
			0, 0, 0, float64(i+1), int64(i))
	}
	deposited := DepositCICWorkers(p, rho, geomUnit(n), 1)
	if deposited != 4 {
		t.Fatalf("deposited %d of 4", deposited)
	}
	FoldGhostsPeriodic(rho)
	vol := math.Pow(1.0/float64(n), 3)
	mass := rho.SumActive() * vol
	if math.Abs(mass-p.TotalMass()) > 1e-12*p.TotalMass() {
		t.Fatalf("mass not conserved: %v vs %v", mass, p.TotalMass())
	}
}

func TestDepositCellCentered(t *testing.T) {
	// A particle exactly at a cell center deposits all mass in that cell.
	n := 8
	rho := mesh.NewField3(n, n, n, 2)
	p := New(1)
	// Cell (3,4,5) center is at ((3.5)/8, (4.5)/8, (5.5)/8).
	p.Add(ep128.FromFloat64(3.5/8), ep128.FromFloat64(4.5/8), ep128.FromFloat64(5.5/8), 0, 0, 0, 2.0, 0)
	DepositCICWorkers(p, rho, geomUnit(n), 1)
	vol := math.Pow(1.0/float64(n), 3)
	if got := rho.At(3, 4, 5) * vol; math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("cell-centered deposit = %v, want 2", got)
	}
	// No leakage.
	if rho.SumActive()*vol != rho.At(3, 4, 5)*vol {
		t.Fatal("mass leaked to other cells")
	}
}

func TestInterpMatchesFieldForLinear(t *testing.T) {
	// CIC interpolation of a linearly varying field is exact.
	n := 16
	gx := mesh.NewField3(n, n, n, 2)
	gy := mesh.NewField3(n, n, n, 2)
	gz := mesh.NewField3(n, n, n, 2)
	for k := -2; k < n+2; k++ {
		for j := -2; j < n+2; j++ {
			for i := -2; i < n+2; i++ {
				gx.Set(i, j, k, 2*(float64(i)+0.5))
				gy.Set(i, j, k, -1*(float64(j)+0.5))
				gz.Set(i, j, k, 0.5*(float64(k)+0.5))
			}
		}
	}
	p := New(1)
	p.Add(ep128.FromFloat64(0.3), ep128.FromFloat64(0.7), ep128.FromFloat64(0.123), 0, 0, 0, 1, 0)
	ax, ay, az, ok := InterpCIC(gx, gy, gz, geomUnit(n), p, 0)
	if !ok {
		t.Fatal("interp failed")
	}
	if math.Abs(ax-2*0.3*float64(n)) > 1e-10 {
		t.Errorf("ax = %v, want %v", ax, 2*0.3*float64(n))
	}
	if math.Abs(ay+0.7*float64(n)) > 1e-10 {
		t.Errorf("ay = %v, want %v", ay, -0.7*float64(n))
	}
	if math.Abs(az-0.5*0.123*float64(n)) > 1e-10 {
		t.Errorf("az = %v", az)
	}
}

func TestDriftExtendedPrecision(t *testing.T) {
	// Tiny drifts on top of O(1) positions must not be lost — the EPA
	// requirement of the paper.
	p := New(1)
	p.Add(ep128.FromFloat64(0.75), ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), 1e-18, 0, 0, 1, 0)
	p.Drift(1.0, 1)
	moved := p.X[0].SubFloat(0.75)
	if moved.Float64() != 1e-18 {
		t.Fatalf("drift lost below float64 resolution: %v", moved.Float64())
	}
}

func TestWrapPeriodic(t *testing.T) {
	p := New(2)
	p.Add(ep128.FromFloat64(1.25), ep128.FromFloat64(-0.5), ep128.FromFloat64(0.5), 0, 0, 0, 1, 0)
	p.WrapPeriodic()
	if math.Abs(p.X[0].Float64()-0.25) > 1e-15 {
		t.Errorf("wrap x: %v", p.X[0].Float64())
	}
	if math.Abs(p.Y[0].Float64()-0.5) > 1e-15 {
		t.Errorf("wrap y: %v", p.Y[0].Float64())
	}
}

func TestExpansionDrag(t *testing.T) {
	p := New(1)
	p.Add(ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), 3, -2, 1, 1, 0)
	p.ApplyExpansion(0.5, 2.0)
	f := math.Exp(-1.0)
	if math.Abs(p.Vx[0]-3*f) > 1e-14 || math.Abs(p.Vy[0]+2*f) > 1e-14 {
		t.Fatalf("expansion drag wrong: %v %v", p.Vx[0], p.Vy[0])
	}
}

func TestTwoBodyOrbitSymmetry(t *testing.T) {
	// Two equal masses under PM gravity accelerate toward each other with
	// equal magnitude (momentum conservation of the PM force to CIC
	// accuracy).
	n := 32
	rho := mesh.NewField3(n, n, n, 2)
	p := New(2)
	p.Add(ep128.FromFloat64(0.4), ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), 0, 0, 0, 5, 0)
	p.Add(ep128.FromFloat64(0.6), ep128.FromFloat64(0.5), ep128.FromFloat64(0.5), 0, 0, 0, 5, 1)
	geom := geomUnit(n)
	DepositCICWorkers(p, rho, geom, 1)
	FoldGhostsPeriodic(rho)
	phi, err := gravity.SolvePeriodicWorkers(rho, geom.Dx, 4*math.Pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	gx, gy, gz := gravity.Accelerations(phi, geom.Dx, 1)
	gx.ApplyPeriodicBC()
	gy.ApplyPeriodicBC()
	gz.ApplyPeriodicBC()
	Kick(p, gx, gy, gz, geom, 0.01, 1)
	if p.Vx[0] <= 0 {
		t.Errorf("left particle should accelerate right: %v", p.Vx[0])
	}
	if p.Vx[1] >= 0 {
		t.Errorf("right particle should accelerate left: %v", p.Vx[1])
	}
	if math.Abs(p.Vx[0]+p.Vx[1]) > 1e-10*math.Abs(p.Vx[0]) {
		t.Errorf("momentum not conserved: %v vs %v", p.Vx[0], p.Vx[1])
	}
	if math.Abs(p.Vy[0]) > 1e-12 || math.Abs(p.Vz[0]) > 1e-12 {
		t.Errorf("spurious transverse kick: %v %v", p.Vy[0], p.Vz[0])
	}
}

func TestKineticEnergy(t *testing.T) {
	p := New(2)
	p.Add(ep128.FromFloat64(0.1), ep128.FromFloat64(0.1), ep128.FromFloat64(0.1), 2, 0, 0, 3, 0)
	p.Add(ep128.FromFloat64(0.2), ep128.FromFloat64(0.2), ep128.FromFloat64(0.2), 0, 1, 0, 4, 1)
	want := 0.5*3*4 + 0.5*4*1
	if math.Abs(p.KineticEnergy()-want) > 1e-14 {
		t.Fatalf("KE = %v, want %v", p.KineticEnergy(), want)
	}
}

func BenchmarkDepositCIC(b *testing.B) {
	n := 32
	rho := mesh.NewField3(n, n, n, 2)
	p := New(1000)
	for i := 0; i < 1000; i++ {
		x := float64(i%97) / 97
		y := float64(i%89) / 89
		z := float64(i%83) / 83
		p.Add(ep128.FromFloat64(x), ep128.FromFloat64(y), ep128.FromFloat64(z), 0, 0, 0, 1, int64(i))
	}
	geom := geomUnit(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepositCICWorkers(p, rho, geom, 1)
	}
}
