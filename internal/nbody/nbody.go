// Package nbody implements the collisionless dark-matter solver of the
// paper (§3.3): particle trajectories integrated with kick-drift-kick
// leapfrog, coupled to the mesh by cloud-in-cell (CIC) deposit and force
// interpolation — "particle-mesh techniques specially tailored to adaptive
// mesh hierarchies".
//
// Absolute particle positions are stored in 128-bit extended precision
// (ep128.Dd), exactly as the paper requires: at 34 levels of refinement the
// offset between a particle and its cell is ~1e-12 of the box, far below
// float64's resolving power over absolute coordinates. All *relative*
// arithmetic (offsets within a grid) is done in float64 after a single
// extended-precision subtraction, keeping the high-precision operation
// count to a few percent (paper §3.5).
//
// The method costs O(particles), and every kernel here runs on par.For to
// keep it there. The deposit partitions particles into fixed chunks, each
// accumulated from zero and added to the density in chunk order over the
// box of cells it touched; the kick and the drift fan fixed particle
// ranges out over the workers. Neither partition depends on the worker
// count, so all three are bitwise identical at any setting.
package nbody

import (
	"fmt"
	"math"

	"repro/internal/ep128"
	"repro/internal/mesh"
	"repro/internal/par"
)

// Particles is a structure-of-arrays particle container. Positions are in
// box units [0,1) in extended precision; velocities and masses are code
// units in float64.
type Particles struct {
	X, Y, Z    []ep128.Dd
	Vx, Vy, Vz []float64
	Mass       []float64
	ID         []int64
}

// New allocates an empty container with capacity hint n.
func New(n int) *Particles {
	return &Particles{
		X: make([]ep128.Dd, 0, n), Y: make([]ep128.Dd, 0, n), Z: make([]ep128.Dd, 0, n),
		Vx: make([]float64, 0, n), Vy: make([]float64, 0, n), Vz: make([]float64, 0, n),
		Mass: make([]float64, 0, n), ID: make([]int64, 0, n),
	}
}

// Len returns the particle count.
func (p *Particles) Len() int { return len(p.Mass) }

// Add appends one particle.
func (p *Particles) Add(x, y, z ep128.Dd, vx, vy, vz, mass float64, id int64) {
	p.X = append(p.X, x)
	p.Y = append(p.Y, y)
	p.Z = append(p.Z, z)
	p.Vx = append(p.Vx, vx)
	p.Vy = append(p.Vy, vy)
	p.Vz = append(p.Vz, vz)
	p.Mass = append(p.Mass, mass)
	p.ID = append(p.ID, id)
}

// TotalMass sums the particle masses.
func (p *Particles) TotalMass() float64 {
	var m float64
	for _, v := range p.Mass {
		m += v
	}
	return m
}

// WrapPeriodic maps all positions into [0,1) with extended-precision
// arithmetic.
func (p *Particles) WrapPeriodic() {
	one := ep128.One
	for i := range p.X {
		p.X[i] = wrap01(p.X[i], one)
		p.Y[i] = wrap01(p.Y[i], one)
		p.Z[i] = wrap01(p.Z[i], one)
	}
}

func wrap01(v, one ep128.Dd) ep128.Dd {
	for v.Sign() < 0 {
		v = v.Add(one)
	}
	for !v.Less(one) {
		v = v.Sub(one)
	}
	return v
}

// GridGeom locates a grid within the box: the extended-precision position
// of the low corner of active cell (0,0,0) and the cell width. The paper's
// EPA rule: corners are absolute (128-bit), everything derived from the
// difference (position - corner) is relative (64-bit).
type GridGeom struct {
	Origin [3]ep128.Dd
	Dx     float64
}

// RelPos returns the float64 position of particle i relative to the grid
// origin in units of cells.
func (g GridGeom) RelPos(p *Particles, i int) (x, y, z float64) {
	x = p.X[i].Sub(g.Origin[0]).Float64() / g.Dx
	y = p.Y[i].Sub(g.Origin[1]).Float64() / g.Dx
	z = p.Z[i].Sub(g.Origin[2]).Float64() / g.Dx
	return
}

// depositChunkSize is the fixed particle-chunk width of the CIC deposit.
// The chunk grid depends only on the particle count — never on the
// resolved worker count — which is what makes the deposit placement-
// invariant: chunk c always covers particles [c*size, (c+1)*size), is
// always accumulated into a buffer that starts from zero, and is always
// reduced into rho in ascending chunk order.
const depositChunkSize = 2048

// DepositCICWorkers adds the particles' mass density (mass per cell
// volume) onto rho with cloud-in-cell weighting. Particles whose cloud
// extends outside the active region deposit into ghost zones; periodic
// callers fold ghosts back with FoldGhostsPeriodic. Returns the number of
// particles whose cloud touched the grid. workers bounds the parallelism
// (par conventions: 0 = NumCPU, 1 = serial).
//
// Particles are partitioned into fixed chunks of depositChunkSize
// regardless of the worker count; chunks are deposited into per-slot
// scratch buffers in batches of W and the batch is reduced into rho
// serially in ascending chunk order, each chunk over the index box of the
// cells it wrote (a chunk that touched nothing is skipped; the rest of its
// buffer is exactly zero and would add nothing). Both the chunk partition
// and the per-cell reduction order are independent of W and of goroutine
// scheduling, so the result is bitwise identical for every worker count —
// a job's canonical checksum cannot depend on where (or how wide) it ran.
func DepositCICWorkers(p *Particles, rho *mesh.Field3, geom GridGeom, workers int) int {
	n := p.Len()
	if n == 0 {
		return 0
	}
	nchunks := (n + depositChunkSize - 1) / depositChunkSize
	w := par.Workers(workers)
	if w > nchunks {
		w = nchunks
	}
	// One scratch grid per batch slot, reused across batches (the touched
	// box is re-zeroed by the reduction), so the live buffer cost is W
	// grid copies, not nchunks.
	bufs := make([]*mesh.Field3, w)
	for s := range bufs {
		bufs[s] = mesh.NewField3(rho.Nx, rho.Ny, rho.Nz, rho.Ng)
	}
	counts := make([]int, w)
	boxes := make([]cellBox, w)
	total := 0
	for base := 0; base < nchunks; base += w {
		batch := w
		if batch > nchunks-base {
			batch = nchunks - base
		}
		// Exactly one index per chunk: the batch slot doubles as the
		// buffer id, so results do not depend on which worker claims
		// which chunk.
		par.For(w, batch, 1, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				plo := (base + s) * depositChunkSize
				phi := plo + depositChunkSize
				if phi > n {
					phi = n
				}
				counts[s], boxes[s] = depositCICRange(p, bufs[s], geom, plo, phi)
			}
		})
		last := base+batch >= nchunks
		for s := 0; s < batch; s++ {
			if counts[s] == 0 {
				continue // nothing written: the buffer is still all zero
			}
			total += counts[s]
			addBox(rho, bufs[s], boxes[s], !last)
		}
	}
	return total
}

// cellBox is an inclusive box of raw array coordinates (ghost offset
// included) of a field: the cells one deposit chunk wrote.
type cellBox struct{ lo, hi [3]int }

// addBox adds src's non-zero cells inside b onto dst, row by row, and
// re-zeroes them when src is to be reused. dst and src share one shape.
func addBox(dst, src *mesh.Field3, b cellBox, rezero bool) {
	sy, sz := src.StrideY(), src.StrideZ()
	n := b.hi[0] - b.lo[0] + 1
	for k := b.lo[2]; k <= b.hi[2]; k++ {
		for j := b.lo[1]; j <= b.hi[1]; j++ {
			off := b.lo[0] + sy*j + sz*k
			s, d := src.Data[off:off+n], dst.Data[off:off+n]
			for i, v := range s {
				if v != 0 {
					d[i] += v
				}
			}
			if rezero {
				clear(s)
			}
		}
	}
}

// cicCell locates particle i's cloud on a grid of the given shape: the
// low cell (i0, j0, k0) of the 2×2×2 cloud and the weights of the high
// cell along each axis. ok is false when the cloud leaves the grid's
// ghost halo.
func cicCell(f *mesh.Field3, geom GridGeom, p *Particles, i int) (i0, j0, k0 int, wx, wy, wz float64, ok bool) {
	x, y, z := geom.RelPos(p, i)
	fx := x - 0.5
	fy := y - 0.5
	fz := z - 0.5
	i0 = int(math.Floor(fx))
	j0 = int(math.Floor(fy))
	k0 = int(math.Floor(fz))
	wx = fx - float64(i0)
	wy = fy - float64(j0)
	wz = fz - float64(k0)
	ng := f.Ng
	ok = !(i0 < -ng || i0+1 >= f.Nx+ng || j0 < -ng || j0+1 >= f.Ny+ng || k0 < -ng || k0+1 >= f.Nz+ng)
	return
}

// depositCICRange deposits particles [lo, hi) with the CIC kernel and
// returns how many touched the grid and the box of cells they wrote
// (meaningless when the count is zero).
func depositCICRange(p *Particles, rho *mesh.Field3, geom GridGeom, lo, hi int) (int, cellBox) {
	invVol := 1 / (geom.Dx * geom.Dx * geom.Dx)
	d := rho.Data
	sy, sz := rho.StrideY(), rho.StrideZ()
	// Running bounds of the clouds' low cells, in active coordinates.
	ilo, jlo, klo := math.MaxInt, math.MaxInt, math.MaxInt
	ihi, jhi, khi := math.MinInt, math.MinInt, math.MinInt
	count := 0
	for i := lo; i < hi; i++ {
		i0, j0, k0, wx, wy, wz, ok := cicCell(rho, geom, p, i)
		if !ok {
			continue
		}
		m := p.Mass[i] * invVol
		base := rho.Idx(i0, j0, k0)
		for dk := 0; dk <= 1; dk++ {
			wk := wz
			if dk == 0 {
				wk = 1 - wz
			}
			for dj := 0; dj <= 1; dj++ {
				wj := wy
				if dj == 0 {
					wj = 1 - wy
				}
				row := base + dk*sz + dj*sy
				d[row] += m * (1 - wx) * wj * wk
				d[row+1] += m * wx * wj * wk
			}
		}
		ilo, ihi = min(ilo, i0), max(ihi, i0)
		jlo, jhi = min(jlo, j0), max(jhi, j0)
		klo, khi = min(klo, k0), max(khi, k0)
		count++
	}
	ng := rho.Ng
	return count, cellBox{
		lo: [3]int{ilo + ng, jlo + ng, klo + ng},
		hi: [3]int{ihi + ng + 1, jhi + ng + 1, khi + ng + 1},
	}
}

// FoldGhostsPeriodic adds ghost-zone deposits back into the periodic
// active region and zeroes the ghosts (completing a periodic CIC deposit).
// Only the ghost shell is visited, in the k, j, i order of a full-grid
// walk, so an active cell that receives several ghosts sums them in a
// fixed order.
func FoldGhostsPeriodic(rho *mesh.Field3) {
	ng := rho.Ng
	wrap := func(v, n int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	fold := func(k, j, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			v := rho.At(i, j, k)
			if v != 0 {
				rho.Add(wrap(i, rho.Nx), wrap(j, rho.Ny), wrap(k, rho.Nz), v)
				rho.Set(i, j, k, 0)
			}
		}
	}
	for k := -ng; k < rho.Nz+ng; k++ {
		for j := -ng; j < rho.Ny+ng; j++ {
			if k < 0 || k >= rho.Nz || j < 0 || j >= rho.Ny {
				fold(k, j, -ng, rho.Nx+ng)
				continue
			}
			fold(k, j, -ng, 0)
			fold(k, j, rho.Nx, rho.Nx+ng)
		}
	}
}

// InterpCIC interpolates the acceleration fields to particle i's position
// with the same CIC kernel used for deposit (ensuring no self-force). The
// three fields share one shape; the cloud's eight cells are read from
// their flat arrays by stride.
func InterpCIC(gx, gy, gz *mesh.Field3, geom GridGeom, p *Particles, i int) (ax, ay, az float64, ok bool) {
	i0, j0, k0, wx, wy, wz, ok := cicCell(gx, geom, p, i)
	if !ok {
		return 0, 0, 0, false
	}
	xd, yd, zd := gx.Data, gy.Data, gz.Data
	sy, sz := gx.StrideY(), gx.StrideZ()
	base := gx.Idx(i0, j0, k0)
	for dk := 0; dk <= 1; dk++ {
		wk := wz
		if dk == 0 {
			wk = 1 - wz
		}
		for dj := 0; dj <= 1; dj++ {
			wj := wy
			if dj == 0 {
				wj = 1 - wy
			}
			row := base + dk*sz + dj*sy
			w := (1 - wx) * wj * wk
			ax += w * xd[row]
			ay += w * yd[row]
			az += w * zd[row]
			w = wx * wj * wk
			ax += w * xd[row+1]
			ay += w * yd[row+1]
			az += w * zd[row+1]
		}
	}
	return ax, ay, az, true
}

// pushRange is the fixed particle range one par.For claim of Kick or
// Drift covers. Every particle's update is independent of every other's,
// so the push is bitwise identical at any worker count.
const pushRange = 4096

// Kick applies a velocity kick from the acceleration fields over dt to all
// particles inside the grid, particle ranges fanned out over workers (par
// conventions).
func Kick(p *Particles, gx, gy, gz *mesh.Field3, geom GridGeom, dt float64, workers int) {
	par.For(workers, p.Len(), pushRange, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ax, ay, az, ok := InterpCIC(gx, gy, gz, geom, p, i)
			if !ok {
				continue
			}
			p.Vx[i] += ax * dt
			p.Vy[i] += ay * dt
			p.Vz[i] += az * dt
		}
	})
}

// Drift advances positions by v*dt in extended precision (velocities are
// in box units per code time), particle ranges fanned out over workers.
func (p *Particles) Drift(dt float64, workers int) {
	par.For(workers, p.Len(), pushRange, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.X[i] = p.X[i].AddFloat(p.Vx[i] * dt)
			p.Y[i] = p.Y[i].AddFloat(p.Vy[i] * dt)
			p.Z[i] = p.Z[i].AddFloat(p.Vz[i] * dt)
		}
	})
}

// ApplyExpansion applies the comoving expansion drag dv/dt = -(ȧ/a)v.
func (p *Particles) ApplyExpansion(adotOverA, dt float64) {
	f := math.Exp(-adotOverA * dt)
	for i := range p.Vx {
		p.Vx[i] *= f
		p.Vy[i] *= f
		p.Vz[i] *= f
	}
}

// KineticEnergy returns the total kinetic energy (1/2 m v²).
func (p *Particles) KineticEnergy() float64 {
	var e float64
	for i := range p.Vx {
		e += 0.5 * p.Mass[i] * (p.Vx[i]*p.Vx[i] + p.Vy[i]*p.Vy[i] + p.Vz[i]*p.Vz[i])
	}
	return e
}

// Validate checks container consistency.
func (p *Particles) Validate() error {
	n := p.Len()
	if len(p.X) != n || len(p.Y) != n || len(p.Z) != n ||
		len(p.Vx) != n || len(p.Vy) != n || len(p.Vz) != n || len(p.ID) != n {
		return fmt.Errorf("nbody: ragged particle arrays")
	}
	for i, m := range p.Mass {
		if m < 0 || math.IsNaN(m) {
			return fmt.Errorf("nbody: bad mass %g at %d", m, i)
		}
	}
	return nil
}
