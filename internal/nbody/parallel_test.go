package nbody

import (
	"math"
	"testing"

	"repro/internal/ep128"
	"repro/internal/mesh"
)

func scatterParticles(n int) *Particles {
	p := New(n)
	for i := 0; i < n; i++ {
		// Low-discrepancy-ish scatter, clustered toward one corner so
		// worker chunks see unequal cell overlap.
		x := math.Mod(0.13+0.6180339887*float64(i), 1.0)
		y := math.Mod(0.29+0.7548776662*float64(i), 1.0)
		z := math.Mod(0.71+0.5698402910*float64(i), 1.0)
		p.Add(ep128.FromFloat64(x*x), ep128.FromFloat64(y), ep128.FromFloat64(z),
			0, 0, 0, 1.0+0.001*float64(i%7), int64(i))
	}
	return p
}

// TestDepositCICWorkersBitwiseInvariant: the deposit partitions particles
// into fixed chunks (independent of the worker count) and reduces the
// per-chunk buffers in ascending chunk order, so the deposited field is
// bitwise identical at every worker count — the property the distributed
// job service relies on for placement-invariant checksums.
func TestDepositCICWorkersBitwiseInvariant(t *testing.T) {
	const n = 16
	const np = 10000 // several full chunks, plus a ragged tail chunk
	p := scatterParticles(np)
	geom := GridGeom{Dx: 1.0 / n}
	for d := 0; d < 3; d++ {
		geom.Origin[d] = ep128.FromFloat64(0)
	}

	serial := mesh.NewField3(n, n, n, 1)
	cs := DepositCICWorkers(p, serial, geom, 1)
	if cs == 0 {
		t.Fatal("serial deposit touched no particles")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		rho := mesh.NewField3(n, n, n, 1)
		if c := DepositCICWorkers(p, rho, geom, workers); c != cs {
			t.Fatalf("workers=%d deposit count %d, serial %d", workers, c, cs)
		}
		for idx, v := range serial.Data {
			if rho.Data[idx] != v {
				t.Fatalf("workers=%d not bitwise equal to serial at %d: %v vs %v",
					workers, idx, rho.Data[idx], v)
			}
		}
	}

	// Accumulation onto a non-zero field must stay worker-invariant too
	// (the AMR driver deposits several overlapping grids' particles onto
	// the same density field).
	pre1 := mesh.NewField3(n, n, n, 1)
	pre4 := mesh.NewField3(n, n, n, 1)
	for idx := range pre1.Data {
		pre1.Data[idx] = 0.25 * float64(idx%13)
		pre4.Data[idx] = pre1.Data[idx]
	}
	DepositCICWorkers(p, pre1, geom, 1)
	DepositCICWorkers(p, pre4, geom, 4)
	for idx, v := range pre1.Data {
		if pre4.Data[idx] != v {
			t.Fatalf("non-zero-field deposit differs by worker count at %d", idx)
		}
	}

	// Physics sanity: total deposited mass matches the particle mass
	// (the grid has ghosts, so every cloud lands somewhere).
	var ms float64
	for _, v := range serial.Data {
		ms += v
	}
	cellVol := geom.Dx * geom.Dx * geom.Dx
	if want := p.TotalMass(); math.Abs(ms*cellVol-want) > 1e-9*want {
		t.Fatalf("deposited mass %v, particle mass %v", ms*cellVol, want)
	}
}
