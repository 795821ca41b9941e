package nbody

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ep128"
	"repro/internal/mesh"
)

// latticeParticles places one particle per cell of an n³ lattice, x
// fastest, nudged off the cell centre by a smooth displacement — the
// pancake layout, where a 2048-particle deposit chunk is a fraction of one
// k-plane.
func latticeParticles(n int) *Particles {
	p := New(n * n * n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				y := (float64(j) + 0.5) / float64(n)
				z := (float64(k) + 0.5) / float64(n)
				d := 0.3 / float64(n)
				p.Add(ep128.FromFloat64(x+d*math.Sin(7*y)), ep128.FromFloat64(y+d*math.Sin(5*z)),
					ep128.FromFloat64(z+d*math.Sin(3*x)), 0.01*x, -0.02*y, 0.03*z,
					1.0+0.001*float64((i+j+k)%7), int64(p.Len()))
			}
		}
	}
	return p
}

// subgridGeom is a fine grid whose origin is not representable in one
// float64: the extended-precision subtraction in RelPos is on the path.
func subgridGeom(n int) GridGeom {
	o := ep128.FromFloat64(0.25).AddFloat(1e-20)
	return GridGeom{Origin: [3]ep128.Dd{o, o, o}, Dx: 0.5 / float64(n)}
}

func sameData(t *testing.T, what string, got, want *mesh.Field3) {
	t.Helper()
	for idx, v := range want.Data {
		if got.Data[idx] != v {
			t.Fatalf("%s: cell %d = %v, parent's deposit %v", what, idx, got.Data[idx], v)
		}
	}
}

// TestDepositCICMatchesParentBitwise holds the touched-box reduction to the
// parent's full-grid scan (export_test.go): the whole Data slice, ghosts
// included, and the returned count, at every worker count.
func TestDepositCICMatchesParentBitwise(t *testing.T) {
	// A chunk wholly outside the grid (the skip path) between two that
	// are inside, then a ragged tail.
	skip := scatterParticles(2*depositChunkSize + 100)
	for i := depositChunkSize; i < 2*depositChunkSize; i++ {
		skip.X[i] = skip.X[i].AddFloat(5)
	}
	lat := 64 // the pancake's size: a chunk is half a k-plane
	if testing.Short() {
		lat = 32
	}
	cases := []struct {
		name string
		p    *Particles
		n    int
		geom GridGeom
	}{
		{"lattice", latticeParticles(lat), lat, GridGeom{Dx: 1 / float64(lat)}},
		{"corner", scatterParticles(10000), 16, GridGeom{Dx: 1.0 / 16}},
		{"skipped-chunk", skip, 16, GridGeom{Dx: 1.0 / 16}},
		{"all-outside", skip, 8, GridGeom{Origin: [3]ep128.Dd{ep128.FromFloat64(9)}, Dx: 1.0 / 8}},
		{"subgrid", latticeParticles(32), 16, subgridGeom(16)},
		{"subgrid-corner", scatterParticles(3 * depositChunkSize), 16, subgridGeom(16)},
	}
	for _, c := range cases {
		for _, ng := range []int{1, 4} {
			for _, pre := range []bool{false, true} {
				want := mesh.NewField3(c.n, c.n, c.n, ng)
				if pre {
					for idx := range want.Data {
						want.Data[idx] = 0.25 * float64(idx%13)
					}
				}
				start := want.Clone()
				wantCount := refDepositCICWorkers(c.p, want, c.geom, 1)
				for _, workers := range []int{1, 2, 4, 8} {
					got := start.Clone()
					count := DepositCICWorkers(c.p, got, c.geom, workers)
					what := fmt.Sprintf("%s ng=%d pre=%v workers=%d", c.name, ng, pre, workers)
					if count != wantCount {
						t.Fatalf("%s: count %d, parent's %d", what, count, wantCount)
					}
					sameData(t, what, got, want)
				}
			}
		}
		if c.name == "all-outside" {
			continue
		}
		probe := mesh.NewField3(c.n, c.n, c.n, 1)
		if DepositCIC(c.p, probe, c.geom) == 0 {
			t.Fatalf("%s: no particle touched the grid — the case tests nothing", c.name)
		}
	}
}

// TestFoldGhostsPeriodicMatchesParentBitwise: the shell-only fold visits
// ghosts in the full walk's order, so corner cells that collect several
// ghosts sum them identically.
func TestFoldGhostsPeriodicMatchesParentBitwise(t *testing.T) {
	for _, ng := range []int{1, 2, 4} {
		want := mesh.NewField3(8, 4, 6, ng)
		for idx := range want.Data {
			want.Data[idx] = math.Sin(float64(idx)) / 3
			if idx%5 == 0 {
				want.Data[idx] = 0
			}
		}
		got := want.Clone()
		refFoldGhostsPeriodic(want)
		FoldGhostsPeriodic(got)
		sameData(t, fmt.Sprintf("fold ng=%d", ng), got, want)
	}
}

// TestKickDriftWorkersBitwise holds the strided interpolation and the
// ranged push to the parent's serial Kick and Drift: velocities and
// extended-precision positions, below and above one pushRange, with some
// particles outside the grid.
func TestKickDriftWorkersBitwise(t *testing.T) {
	const n = 16
	geom := subgridGeom(n)
	var g [3]*mesh.Field3
	for d := range g {
		g[d] = mesh.NewField3(n, n, n, 2)
		for idx := range g[d].Data {
			g[d].Data[idx] = math.Sin(float64(idx*(d+2))) + 0.1*float64(d)
		}
	}
	moving := func(np int) *Particles {
		p := scatterParticles(np) // at rest: give the drift something to do
		for i := range p.Vx {
			p.Vx[i], p.Vy[i], p.Vz[i] = 0.1*float64(i%5), -0.07*float64(i%3), 0.03*float64(i%11)
		}
		return p
	}
	for _, np := range []int{100, pushRange - 1, 3*pushRange + 17} {
		want := moving(np)
		refKick(want, g[0], g[1], g[2], geom, 0.37)
		want.refDrift(0.011)
		refKick(want, g[0], g[1], g[2], geom, 0.37)
		for _, workers := range []int{1, 2, 4, 8} {
			got := moving(np)
			Kick(got, g[0], g[1], g[2], geom, 0.37, workers)
			got.Drift(0.011, workers)
			Kick(got, g[0], g[1], g[2], geom, 0.37, workers)
			kicked := 0
			for i := 0; i < np; i++ {
				if got.Vx[i] != want.Vx[i] || got.Vy[i] != want.Vy[i] || got.Vz[i] != want.Vz[i] {
					t.Fatalf("np=%d workers=%d: particle %d velocity differs from the parent's", np, workers, i)
				}
				if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] || got.Z[i] != want.Z[i] {
					t.Fatalf("np=%d workers=%d: particle %d position differs from the parent's", np, workers, i)
				}
				if _, _, _, ok := InterpCIC(g[0], g[1], g[2], geom, got, i); ok {
					kicked++
				}
			}
			if kicked == 0 || kicked == np {
				t.Fatalf("np=%d: %d particles inside the grid — want some in, some out", np, kicked)
			}
		}
	}
}
