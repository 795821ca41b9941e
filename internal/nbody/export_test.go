package nbody

// The parent commit's particle-mesh kernels, verbatim, kept as the bitwise
// oracles for the touched-box deposit reduction, the strided CIC
// interpolation and the parallel push (oracle_test.go). Renamed with a
// ref prefix only; never call these from non-test code.

import (
	"math"

	"repro/internal/mesh"
	"repro/internal/par"
)

// refDepositCICWorkers is the parent's DepositCICWorkers: every chunk is
// reduced by a scan of the whole scratch grid.
func refDepositCICWorkers(p *Particles, rho *mesh.Field3, geom GridGeom, workers int) int {
	n := p.Len()
	if n == 0 {
		return 0
	}
	nchunks := (n + depositChunkSize - 1) / depositChunkSize
	w := par.Workers(workers)
	if w > nchunks {
		w = nchunks
	}
	// One scratch grid per worker slot, reused (re-zeroed) across
	// batches, so the live buffer cost is W grid copies, not nchunks.
	bufs := make([]*mesh.Field3, w)
	for s := range bufs {
		bufs[s] = mesh.NewField3(rho.Nx, rho.Ny, rho.Nz, rho.Ng)
	}
	counts := make([]int, w)
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
				counts[s] = refDepositCICRange(p, bufs[s], geom, plo, phi)
			}
		})
		for s := 0; s < batch; s++ {
			total += counts[s]
			src := bufs[s].Data
			dst := rho.Data
			for i, v := range src {
				if v != 0 {
					dst[i] += v
				}
			}
			if base+batch < nchunks {
				bufs[s].Zero()
			}
		}
	}
	return total
}

// refDepositCICRange deposits particles [lo, hi) with the CIC kernel.
func refDepositCICRange(p *Particles, rho *mesh.Field3, geom GridGeom, lo, hi int) int {
	ng := rho.Ng
	invVol := 1 / (geom.Dx * geom.Dx * geom.Dx)
	count := 0
	for i := lo; i < hi; i++ {
		x, y, z := geom.RelPos(p, i)
		fx := x - 0.5
		fy := y - 0.5
		fz := z - 0.5
		i0 := int(math.Floor(fx))
		j0 := int(math.Floor(fy))
		k0 := int(math.Floor(fz))
		wx := fx - float64(i0)
		wy := fy - float64(j0)
		wz := fz - float64(k0)
		if i0 < -ng || i0+1 >= rho.Nx+ng || j0 < -ng || j0+1 >= rho.Ny+ng || k0 < -ng || k0+1 >= rho.Nz+ng {
			continue
		}
		m := p.Mass[i] * invVol
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
				for di := 0; di <= 1; di++ {
					wi := wx
					if di == 0 {
						wi = 1 - wx
					}
					rho.Add(i0+di, j0+dj, k0+dk, m*wi*wj*wk)
				}
			}
		}
		count++
	}
	return count
}

// refInterpCIC interpolates the acceleration fields to particle i's position
// with the same CIC kernel used for deposit (ensuring no self-force).
func refInterpCIC(gx, gy, gz *mesh.Field3, geom GridGeom, p *Particles, i int) (ax, ay, az float64, ok bool) {
	ng := gx.Ng
	x, y, z := geom.RelPos(p, i)
	fx := x - 0.5
	fy := y - 0.5
	fz := z - 0.5
	i0 := int(math.Floor(fx))
	j0 := int(math.Floor(fy))
	k0 := int(math.Floor(fz))
	wx := fx - float64(i0)
	wy := fy - float64(j0)
	wz := fz - float64(k0)
	if i0 < -ng || i0+1 >= gx.Nx+ng || j0 < -ng || j0+1 >= gx.Ny+ng || k0 < -ng || k0+1 >= gx.Nz+ng {
		return 0, 0, 0, false
	}
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
			for di := 0; di <= 1; di++ {
				wi := wx
				if di == 0 {
					wi = 1 - wx
				}
				w := wi * wj * wk
				ax += w * gx.At(i0+di, j0+dj, k0+dk)
				ay += w * gy.At(i0+di, j0+dj, k0+dk)
				az += w * gz.At(i0+di, j0+dj, k0+dk)
			}
		}
	}
	return ax, ay, az, true
}

// refKick applies a velocity kick from the acceleration fields over dt to all
// particles inside the grid.
func refKick(p *Particles, gx, gy, gz *mesh.Field3, geom GridGeom, dt float64) {
	for i := 0; i < p.Len(); i++ {
		ax, ay, az, ok := refInterpCIC(gx, gy, gz, geom, p, i)
		if !ok {
			continue
		}
		p.Vx[i] += ax * dt
		p.Vy[i] += ay * dt
		p.Vz[i] += az * dt
	}
}

// refDrift advances positions by v*dt in extended precision (velocities are
// in box units per code time).
func (p *Particles) refDrift(dt float64) {
	for i := range p.X {
		p.X[i] = p.X[i].AddFloat(p.Vx[i] * dt)
		p.Y[i] = p.Y[i].AddFloat(p.Vy[i] * dt)
		p.Z[i] = p.Z[i].AddFloat(p.Vz[i] * dt)
	}
}

// refFoldGhostsPeriodic adds ghost-zone deposits back into the periodic
// active region and zeroes the ghosts (completing a periodic CIC deposit).
func refFoldGhostsPeriodic(rho *mesh.Field3) {
	ng := rho.Ng
	wrap := func(v, n int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	for k := -ng; k < rho.Nz+ng; k++ {
		for j := -ng; j < rho.Ny+ng; j++ {
			for i := -ng; i < rho.Nx+ng; i++ {
				inside := i >= 0 && i < rho.Nx && j >= 0 && j < rho.Ny && k >= 0 && k < rho.Nz
				if inside {
					continue
				}
				v := rho.At(i, j, k)
				if v != 0 {
					rho.Add(wrap(i, rho.Nx), wrap(j, rho.Ny), wrap(k, rho.Nz), v)
					rho.Set(i, j, k, 0)
				}
			}
		}
	}
}
