package gravity

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

func waveRhs(n int) *mesh.Field3 {
	rhs := mesh.NewField3(n, n, n, 1)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := float64(i) / float64(n)
				y := float64(j) / float64(n)
				z := float64(k) / float64(n)
				rhs.Set(i, j, k, math.Sin(2*math.Pi*x)*math.Cos(4*math.Pi*y)+0.3*math.Sin(6*math.Pi*z))
			}
		}
	}
	return rhs
}

// TestMultigridParallelBitwise: red-black smoothing touches only the
// opposite color per pass, so the parallel V-cycle must match the serial
// one bit for bit.
func TestMultigridParallelBitwise(t *testing.T) {
	const n = 32
	dx := 1.0 / n
	rhs := waveRhs(n)

	run := func(workers int) *mesh.Field3 {
		phi := mesh.NewField3(n, n, n, 1)
		p := DefaultMGParams()
		p.Workers = workers
		p.MaxVCycles = 6
		SolveMultigrid(phi, rhs, dx, p)
		return phi
	}
	serial := run(1)
	parallel := run(8)
	for idx, v := range serial.Data {
		if parallel.Data[idx] != v {
			t.Fatalf("multigrid differs at %d: serial %v parallel %v", idx, v, parallel.Data[idx])
		}
	}
}

// TestSolvePeriodicParallelBitwise: every FFT line transform is an
// independent in-place 1-D transform, so the worker count must not change
// the potential at all.
func TestSolvePeriodicParallelBitwise(t *testing.T) {
	const n = 32
	dx := 1.0 / n
	rho := waveRhs(n)
	serial, err := SolvePeriodicWorkers(rho, dx, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SolvePeriodicWorkers(rho, dx, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for idx, v := range serial.Data {
		if parallel.Data[idx] != v {
			t.Fatalf("FFT potential differs at %d: serial %v parallel %v", idx, v, parallel.Data[idx])
		}
	}
}

// TestAccelerationsParallelBitwise holds the strided, k-plane-parallel
// gradient to the per-cell At/Set form it replaced, ghosts included, at
// every worker count.
func TestAccelerationsParallelBitwise(t *testing.T) {
	const nx, ny, nz = 12, 8, 10
	const dx = 1.0 / 12
	phi := mesh.NewField3(nx, ny, nz, 2)
	for idx := range phi.Data {
		phi.Data[idx] = math.Sin(0.7*float64(idx)) + 1e-3*float64(idx%17)
	}
	var want [3]*mesh.Field3
	for d := range want {
		want[d] = mesh.NewField3(nx, ny, nz, 2)
	}
	inv2dx := 1 / (2 * dx)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				want[0].Set(i, j, k, -(phi.At(i+1, j, k)-phi.At(i-1, j, k))*inv2dx)
				want[1].Set(i, j, k, -(phi.At(i, j+1, k)-phi.At(i, j-1, k))*inv2dx)
				want[2].Set(i, j, k, -(phi.At(i, j, k+1)-phi.At(i, j, k-1))*inv2dx)
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		gx, gy, gz := Accelerations(phi, dx, workers)
		for d, got := range []*mesh.Field3{gx, gy, gz} {
			for idx, v := range want[d].Data {
				if got.Data[idx] != v {
					t.Fatalf("workers=%d axis %d differs at %d: per-cell %v, got %v", workers, d, idx, v, got.Data[idx])
				}
			}
		}
	}
}
