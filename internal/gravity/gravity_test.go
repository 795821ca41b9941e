package gravity

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

func TestPeriodicSolveSatisfiesDifferenceEquation(t *testing.T) {
	// The FFT solve must satisfy the discrete 7-point Poisson equation to
	// round-off for the mean-subtracted source.
	n := 16
	rho := mesh.NewField3(n, n, n, 1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				rho.Set(i, j, k, math.Sin(2*math.Pi*float64(i)/float64(n))*
					math.Cos(4*math.Pi*float64(j)/float64(n))+1.5)
			}
		}
	}
	dx := 1.0 / float64(n)
	coeff := 4 * math.Pi
	phi, err := SolvePeriodic(rho, dx, coeff)
	if err != nil {
		t.Fatal(err)
	}
	mean := rho.SumActive() / float64(n*n*n)
	rhs := mesh.NewField3(n, n, n, 1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				rhs.Set(i, j, k, coeff*(rho.At(i, j, k)-mean))
			}
		}
	}
	if r := ResidualNorm(phi, rhs, dx); r > 1e-9 {
		t.Fatalf("FFT Poisson residual %e", r)
	}
}

func TestPeriodicSolveSingleMode(t *testing.T) {
	// For rho - mean = A sin(2π i/n), the discrete solution is
	// phi = A sin(2π i/n) / lambda with lambda the discrete eigenvalue.
	n := 32
	rho := mesh.NewField3(n, n, n, 1)
	amp := 2.0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				rho.Set(i, j, k, amp*math.Sin(2*math.Pi*float64(i)/float64(n)))
			}
		}
	}
	dx := 1.0 / float64(n)
	phi, err := SolvePeriodic(rho, dx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lambda := (2*math.Cos(2*math.Pi/float64(n)) - 2) / (dx * dx)
	for i := 0; i < n; i++ {
		want := amp * math.Sin(2*math.Pi*float64(i)/float64(n)) / lambda
		if d := math.Abs(phi.At(i, 3, 5) - want); d > 1e-10*math.Abs(want)+1e-12 {
			t.Fatalf("phi(%d) = %v, want %v", i, phi.At(i, 3, 5), want)
		}
	}
}

func TestPeriodicRejectsBadSize(t *testing.T) {
	rho := mesh.NewField3(12, 12, 12, 1)
	if _, err := SolvePeriodic(rho, 1.0/12, 1.0); err == nil {
		t.Fatal("non-power-of-two size should fail")
	}
}

func TestAccelerationsPointTowardMass(t *testing.T) {
	// A central overdensity must produce inward accelerations.
	n := 16
	rho := mesh.NewField3(n, n, n, 1)
	rho.Fill(1)
	rho.Set(n/2, n/2, n/2, 100)
	dx := 1.0 / float64(n)
	phi, err := SolvePeriodic(rho, dx, 4*math.Pi)
	if err != nil {
		t.Fatal(err)
	}
	gx, gy, gz := Accelerations(phi, dx, 1)
	// Cell to the +x side of center must accelerate in -x.
	if gx.At(n/2+2, n/2, n/2) >= 0 {
		t.Errorf("gx on +x side = %v, want negative", gx.At(n/2+2, n/2, n/2))
	}
	if gx.At(n/2-2, n/2, n/2) <= 0 {
		t.Errorf("gx on -x side = %v, want positive", gx.At(n/2-2, n/2, n/2))
	}
	if gy.At(n/2, n/2+2, n/2) >= 0 || gz.At(n/2, n/2, n/2+2) >= 0 {
		t.Error("transverse accelerations do not point inward")
	}
	// Symmetry: |g| equal on opposite sides.
	a := math.Abs(gx.At(n/2+2, n/2, n/2))
	b := math.Abs(gx.At(n/2-2, n/2, n/2))
	if math.Abs(a-b)/a > 1e-10 {
		t.Errorf("acceleration asymmetry: %v vs %v", a, b)
	}
}

func TestMultigridManufacturedSolution(t *testing.T) {
	// Solve with a manufactured solution phi = x(1-x) y(1-y) z(1-z) on
	// the unit cube with exact Dirichlet boundary ghosts.
	n := 32
	dx := 1.0 / float64(n)
	sol := func(x, y, z float64) float64 { return x * (1 - x) * y * (1 - y) * z * (1 - z) }
	lap := func(x, y, z float64) float64 {
		return -2*y*(1-y)*z*(1-z) - 2*x*(1-x)*z*(1-z) - 2*x*(1-x)*y*(1-y)
	}
	phi := mesh.NewField3(n, n, n, 1)
	rhs := mesh.NewField3(n, n, n, 1)
	for k := -1; k <= n; k++ {
		for j := -1; j <= n; j++ {
			for i := -1; i <= n; i++ {
				x := (float64(i) + 0.5) * dx
				y := (float64(j) + 0.5) * dx
				z := (float64(k) + 0.5) * dx
				inside := i >= 0 && i < n && j >= 0 && j < n && k >= 0 && k < n
				if !inside {
					phi.Set(i, j, k, sol(x, y, z)) // Dirichlet ghosts
				}
				if inside {
					rhs.Set(i, j, k, lap(x, y, z))
				}
			}
		}
	}
	rel, cycles := SolveMultigrid(phi, rhs, dx, DefaultMGParams())
	if rel > 1e-8 {
		t.Fatalf("multigrid did not converge: rel=%e after %d cycles", rel, cycles)
	}
	// Compare against the analytic solution (second-order accuracy).
	var maxErr float64
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) * dx
				y := (float64(j) + 0.5) * dx
				z := (float64(k) + 0.5) * dx
				if d := math.Abs(phi.At(i, j, k) - sol(x, y, z)); d > maxErr {
					maxErr = d
				}
			}
		}
	}
	if maxErr > 5e-4 {
		t.Fatalf("multigrid solution error %e too large", maxErr)
	}
}

func TestMultigridConvergenceRate(t *testing.T) {
	// V-cycles must reduce the residual by a large factor per cycle.
	n := 16
	dx := 1.0 / float64(n)
	phi := mesh.NewField3(n, n, n, 1)
	rhs := mesh.NewField3(n, n, n, 1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				rhs.Set(i, j, k, math.Sin(float64(i*j+k)))
			}
		}
	}
	p := DefaultMGParams()
	p.MaxVCycles = 1
	p.Tol = 0
	r0 := ResidualNorm(phi, rhs, dx)
	vcycle(phi, rhs, dx, p, &mgScratch{}, 0)
	r1 := ResidualNorm(phi, rhs, dx)
	if r1 > 0.2*r0 {
		t.Fatalf("V-cycle convergence too slow: %e -> %e", r0, r1)
	}
}

func TestMultigridOddSizeFallsBack(t *testing.T) {
	// Odd-sized grids must still converge via the smoothing bottom solver.
	n := 10 // coarsens 10 -> 5 (odd) -> bottom
	dx := 1.0 / float64(n)
	phi := mesh.NewField3(n, n, n, 1)
	rhs := mesh.NewField3(n, n, n, 1)
	rhs.Set(n/2, n/2, n/2, 1)
	p := DefaultMGParams()
	p.MaxVCycles = 60
	rel, _ := SolveMultigrid(phi, rhs, dx, p)
	if rel > 1e-6 {
		t.Fatalf("odd-size multigrid residual %e", rel)
	}
}

func BenchmarkPeriodicSolve32(b *testing.B) {
	n := 32
	rho := mesh.NewField3(n, n, n, 1)
	for i := range rho.Data {
		rho.Data[i] = float64(i % 13)
	}
	dx := 1.0 / float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolvePeriodic(rho, dx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultigrid16(b *testing.B) {
	n := 16
	dx := 1.0 / float64(n)
	rhs := mesh.NewField3(n, n, n, 1)
	rhs.Set(n/2, n/2, n/2, 1)
	p := DefaultMGParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phi := mesh.NewField3(n, n, n, 1)
		SolveMultigrid(phi, rhs, dx, p)
	}
}
