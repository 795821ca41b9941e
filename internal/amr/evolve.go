package amr

import (
	"fmt"
	"math"
	"time"

	"repro/internal/clustering"
	"repro/internal/gravity"
	"repro/internal/hydro"
	"repro/internal/mesh"
	"repro/internal/nbody"
	"repro/internal/par"
	"repro/internal/physics"
)

// Timing accumulates wall-clock time per science component, reproducing
// the paper's §5 component-usage table.
type Timing struct {
	Hydro     time.Duration
	Gravity   time.Duration
	Chemistry time.Duration
	NBody     time.Duration
	Rebuild   time.Duration
	Boundary  time.Duration
	Other     time.Duration

	// PerOp breaks the component rows down by pipeline operator name (a
	// finer-grained view of the same wall-clock time, not additive on
	// top of it).
	PerOp map[string]time.Duration
}

// Total returns the summed component time.
func (t Timing) Total() time.Duration {
	return t.Hydro + t.Gravity + t.Chemistry + t.NBody + t.Rebuild + t.Boundary + t.Other
}

// addOp bills d to the operator's component row and its per-op entry.
func (t *Timing) addOp(name string, comp physics.Component, d time.Duration) {
	switch comp {
	case physics.CompHydro:
		t.Hydro += d
	case physics.CompGravity:
		t.Gravity += d
	case physics.CompChemistry:
		t.Chemistry += d
	case physics.CompNBody:
		t.NBody += d
	default:
		t.Other += d
	}
	if t.PerOp == nil {
		t.PerOp = map[string]time.Duration{}
	}
	t.PerOp[name] += d
}

// gravitySolveOp is the driver's LevelOperator realizing self-gravity:
// the Poisson solve couples all grids of a level through sibling boundary
// exchange, so it runs once per level step before the per-grid sweep. The
// per-grid velocity kicks are the separate physics.GravityKickOp entries.
type gravitySolveOp struct{ h *Hierarchy }

func (*gravitySolveOp) Name() string                                   { return "gravity.solve" }
func (*gravitySolveOp) Component() physics.Component                   { return physics.CompGravity }
func (*gravitySolveOp) NGhost() int                                    { return 1 }
func (*gravitySolveOp) Apply(*physics.Context, *physics.Grid, float64) {}
func (*gravitySolveOp) Timestep(*physics.Context, *physics.Grid) float64 {
	return math.Inf(1)
}

// ApplyLevel solves the Poisson equation on every grid of the level.
func (o *gravitySolveOp) ApplyLevel(level int, dt float64) {
	if o.h.Cfg.SelfGravity {
		o.h.solveGravityLevel(level)
	}
}

// pipeline returns the hierarchy's operator pipeline, installing the
// default when none was set (e.g. a zero-literal Hierarchy in tests), and
// rejects operators whose stencil exceeds the allocated ghost depth.
func (h *Hierarchy) pipeline() physics.Pipeline {
	if h.Physics == nil {
		h.Physics = DefaultPipeline(h)
	}
	if ng := h.Physics.MaxNGhost(); ng > hydro.NGhost {
		panic(fmt.Sprintf("amr: pipeline needs %d ghost zones, grids allocate %d", ng, hydro.NGhost))
	}
	return h.Physics
}

// physicsContext assembles the operator environment from the run config.
func (h *Hierarchy) physicsContext() physics.Context {
	return physics.Context{Params: h.Cfg.Params, Workers: h.Cfg.Workers}
}

// gridView builds the per-grid operator view.
func (h *Hierarchy) gridView(g *Grid, st *physics.OpStats) physics.Grid {
	return physics.Grid{
		State: g.State, Dx: g.Dx, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		Level: g.Level, Root: g.Level == 0,
		GAcc: g.GAcc, Parts: g.Parts, Geom: g.Geom(),
		Reg: g.Reg, Taps: g.Taps,
		Parity: h.parity, Stats: st,
	}
}

// Step advances the whole hierarchy by one root-grid timestep, running the
// full W-cycle over all refined levels, and returns the dt taken.
func (h *Hierarchy) Step() float64 {
	dt := h.ComputeTimestep(0)
	target := h.levelTime(0) + dt
	h.EvolveLevel(0, target)
	h.Time = target
	if h.Cfg.Cosmo != nil {
		h.Cfg.Cosmo.Advance(dt * h.Cfg.Units.Time)
		// Keep the diagnostic cooling parameters tracking the expansion
		// (the chemistry operator computes its own in-step redshift from
		// a; this copy serves offline consumers like analysis.CoolingTime).
		h.Cfg.CoolParams.Redshift = 1/h.Cfg.Cosmo.A - 1
	}
	h.Stats.StepsTaken++
	return dt
}

// levelTime returns the current time of the given level (all grids on a
// level advance together).
func (h *Hierarchy) levelTime(level int) float64 {
	if level >= len(h.Levels) || len(h.Levels[level]) == 0 {
		return h.Time
	}
	return h.Levels[level][0].Time
}

// EvolveLevel is the recursive heart of the method (paper §3.2): advance
// the grids on one level to ParentTime with as many of their own (smaller)
// timesteps as needed, recursively advancing all finer levels after each,
// then restoring coarse/fine consistency.
func (h *Hierarchy) EvolveLevel(level int, parentTime float64) {
	if level >= len(h.Levels) || len(h.Levels[level]) == 0 {
		return
	}
	t0 := time.Now()
	h.setBoundaries(level)
	h.Timing.Boundary += time.Since(t0)
	for {
		now := h.levelTime(level)
		if now >= parentTime-1e-14*math.Max(1, math.Abs(parentTime)) {
			break
		}
		dt := h.ComputeTimestep(level)
		if now+dt > parentTime {
			dt = parentTime - now
		}
		for _, op := range h.pipeline() {
			if lop, ok := op.(physics.LevelOperator); ok {
				t0 := time.Now()
				lop.ApplyLevel(level, dt)
				h.Timing.addOp(op.Name(), op.Component(), time.Since(t0))
			}
		}
		h.installTaps(level)
		h.stepLevelGrids(level, dt)
		t0 = time.Now()
		h.setBoundaries(level)
		h.Timing.Boundary += time.Since(t0)

		h.EvolveLevel(level+1, h.levelTime(level))

		t0 = time.Now()
		h.reconcileSiblingFluxes(level + 1)
		h.fluxCorrect(level)
		h.project(level)
		h.Timing.Other += time.Since(t0)

		t0 = time.Now()
		h.RebuildHierarchy(level + 1)
		h.Timing.Rebuild += time.Since(t0)
		h.parity++
	}
}

// stepLevelGrids advances every grid on a level by dt on the shared par
// engine (grids are independent once boundaries and taps are set; the
// particle-lift pass mutates ancestors and runs serially afterwards, in
// grid order — nothing stepped on a level reads an ancestor's particles).
// Each grid step returns what it did; the operator times and work counters
// are billed afterwards, in grid order.
func (h *Hierarchy) stepLevelGrids(level int, dt float64) {
	grids := h.Levels[level]
	ops := h.pipeline()
	spent := make([]time.Duration, len(grids)*len(ops))
	stats := make([]physics.OpStats, len(grids))
	h.forGrids(len(grids), func(i, inner int) {
		stats[i] = h.stepGrid(grids[i], dt, ops, inner, spent[i*len(ops):][:len(ops)])
	})
	for i, g := range grids {
		// A level operator's slot stays zero: EvolveLevel billed it.
		for k, op := range ops {
			h.Timing.addOp(op.Name(), op.Component(), spent[i*len(ops)+k])
		}
		h.Stats.CellUpdates += stats[i].CellUpdates
		h.Stats.ChemCellCalls += stats[i].ChemCellCalls
		h.Stats.ParticleKicks += stats[i].ParticleKicks
		h.liftEscapedParticles(g)
	}
}

// stepGrid advances one grid by dt by running the per-grid operators in
// pipeline order (default: gravity half-kick, hydro sweep set, half-kick,
// particle KDK, expansion drag, chemistry) on the given workers. It writes
// each operator's wall-clock time at its pipeline index in spent and
// returns the grid's work counters; it writes nothing of h, so the grids
// of a level step concurrently.
func (h *Hierarchy) stepGrid(g *Grid, dt float64, ops []physics.Operator, workers int, spent []time.Duration) physics.OpStats {
	ctx := h.physicsContext()
	ctx.Workers = workers
	var st physics.OpStats
	view := h.gridView(g, &st)
	for k, op := range ops {
		if _, level := op.(physics.LevelOperator); level {
			// Level-wide work already ran (and was billed) in
			// EvolveLevel's per-level stage.
			continue
		}
		t0 := time.Now()
		op.Apply(&ctx, &view, dt)
		spent[k] = time.Since(t0)
	}
	g.Time += dt
	return st
}

// ComputeTimestep returns the stable dt for a level: the minimum operator
// stability limit over its grids (hydro CFL, particle-crossing, the 2%
// expansion-factor limit — each owned by its operator's Timestep hook),
// falling back to 1e-3 when nothing constrains.
func (h *Hierarchy) ComputeTimestep(level int) float64 {
	dt := math.Inf(1)
	ctx := h.physicsContext()
	pipe := h.pipeline()
	if level < len(h.Levels) {
		for _, g := range h.Levels[level] {
			var st physics.OpStats
			view := h.gridView(g, &st)
			if d := pipe.Timestep(&ctx, &view); d < dt {
				dt = d
			}
		}
	}
	if math.IsInf(dt, 1) {
		dt = 1e-3
	}
	return dt
}

// setBoundaries fills the ghost zones of every grid on a level: periodic
// for the root, parent interpolation and sibling exchange for subgrids
// (paper §3.2.1's two-step procedure, in which sibling data wins; here
// the parent fills only the ghosts no sibling covers, so the two steps
// need no order between them).
func (h *Hierarchy) setBoundaries(level int) {
	if level >= len(h.Levels) {
		return
	}
	grids := h.Levels[level]
	h.Stats.BoundaryFills += int64(len(grids))
	fields := make([][]*mesh.Field3, len(grids))
	for i, g := range grids {
		fields[i] = g.totalFields()
	}
	if level == 0 {
		for _, gf := range fields {
			mesh.ApplyPeriodicBCs(gf, h.Cfg.Workers)
		}
		return
	}
	// Parent pass, grid-parallel: a grid writes only its own ghosts and
	// reads only the coarser level, so any worker count gives the same bits.
	// Only the plan's residual boxes are prolonged: the sibling pass
	// overwrites every other ghost, reading only active cells, so what a
	// parent value there would have been never matters.
	//
	// Sibling pass: overwrite ghost values where a same-level grid has
	// the higher-resolution answer. Periodic images are included (a grid
	// spanning the box is its own periodic sibling), so fine data wins
	// over coarse parent interpolation across the box boundary too.
	//
	// Serial, in plan order, on purpose: snapToEven grows clustered boxes
	// into their neighbours, so same-level grids overlap in ACTIVE cells;
	// CopyOverlap then writes active cells that other grids read, and the
	// result depends on the order of the copies. A grid-parallel pass is a
	// data race with a different answer every run. Dependency waves do not
	// rescue it: nearly every link of a fill conflicts with another.
	//
	// The two passes still run side by side, because they touch disjoint
	// memory. The parent pass writes only residual-box cells — ghosts that
	// no link covers — and reads only the coarser level. The sibling pass
	// writes only link-covered cells (a grid's ghost-extended box
	// intersected with its sibling's active box) and reads only active
	// cells of this level. So the whole sibling pass is task 0 of the
	// grid-parallel loop, claimed first, and the other workers drain the
	// parent fills beside it; each pass keeps its own order, and the bits
	// are those of running one after the other.
	plan := h.plan(level)
	par.For(h.Cfg.Workers, len(grids)+1, 1, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			if t == 0 {
				for _, l := range plan.links {
					gf, sf := fields[l.g], fields[l.s]
					for fi := range gf {
						mesh.CopyOverlap(gf[fi], sf[fi], l.d[0], l.d[1], l.d[2], hydro.NGhost)
					}
				}
				continue
			}
			i := t - 1
			fillGhostsFromParent(grids[i], fields[i], plan.resid[i], h.Cfg.Refine)
		}
	})
}

// levelBoxCells returns the number of cells spanning the periodic box at
// the given level.
func (h *Hierarchy) levelBoxCells(level int) int {
	n := h.Cfg.RootN
	for l := 0; l < level; l++ {
		n *= h.Cfg.Refine
	}
	return n
}

// fillGhostsFromParent interpolates the child's ghost cells in boxes from
// its parent with limited linear reconstruction (boundary values "first
// interpolated from the grid's parent"). A cell gets the same value
// whichever box it sits in.
func fillGhostsFromParent(g *Grid, cf []*mesh.Field3, boxes []clustering.Box, refine int) {
	p := g.Parent
	if p == nil || len(boxes) == 0 {
		return
	}
	oi, oj, ok := offsetWithin(p, g, refine)
	pl := mesh.NewProlongation(g.Nx, g.Ny, g.Nz, oi, oj, ok, refine, hydro.NGhost)
	for fi, pf := range p.totalFields() {
		for _, b := range boxes {
			pl.Fill(pf, cf[fi], b.Lo, b.Hi)
		}
	}
}

// childBox returns child c's extent [lo, hi) in the active cell
// coordinates of its parent g, r being the refinement factor.
func childBox(g, c *Grid, r int) (lo, hi [3]int) {
	lo = [3]int{c.Lo[0]/r - g.Lo[0], c.Lo[1]/r - g.Lo[1], c.Lo[2]/r - g.Lo[2]}
	hi = [3]int{lo[0] + c.Nx/r, lo[1] + c.Ny/r, lo[2] + c.Nz/r}
	return lo, hi
}

// installTaps prepares each grid's interior flux taps at the boundary
// planes of its children, and zeroes the children's registers, readying
// one coarse step of flux bookkeeping.
func (h *Hierarchy) installTaps(level int) {
	r := h.Cfg.Refine
	for _, g := range h.Levels[level] {
		g.Taps = g.Taps[:0]
		for _, c := range g.Children {
			c.Reg.Zero()
			lo, hi := childBox(g, c, r)
			nsp := len(g.State.Species)
			for dir := 0; dir < 3; dir++ { // face order x-, x+, y-, y+, z-, z+
				t1lo, t1hi, t2lo, t2hi := tapTransverse(lo, hi, dir)
				g.Taps = append(g.Taps,
					hydro.NewFluxTap(dir, lo[dir], t1lo, t1hi, t2lo, t2hi, nsp),
					hydro.NewFluxTap(dir, hi[dir], t1lo, t1hi, t2lo, t2hi, nsp))
			}
		}
	}
}

// solveGravityLevel solves the Poisson equation on every grid of a level:
// FFT on the periodic root, multigrid with parent-interpolated Dirichlet
// boundaries plus an iterative sibling exchange on subgrids (§3.3). The
// exchange is a subgrid matter: the root is one periodic grid whose
// source does not change between passes, so it is solved once.
//
// Within a pass, grid j reads each touching sibling i < j after i's solve
// in this pass and each i > j before it. Subgrids run in dependency waves
// (gravityWaves) that keep both orders for every touching pair, so every
// grid of a wave solves concurrently and the bits equal a serial pass in
// grid order; siblings that do not touch exchange nothing.
func (h *Hierarchy) solveGravityLevel(level int) {
	gc := h.gravConstNow()
	grids := h.Levels[level]
	// The source reads only Rho and DMRho, which the passes never write,
	// so each grid's is built once and serves both passes.
	bounds := h.particleBounds()
	rhs := make([]*mesh.Field3, len(grids))
	h.forGrids(len(grids), func(n, inner int) {
		g := grids[n]
		h.depositDM(g, bounds, inner)
		src := mesh.NewField3(g.Nx, g.Ny, g.Nz, 1)
		gas, dm := g.State.Rho, g.DMRho
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				gi, di := gas.Idx(0, j, k), dm.Idx(0, j, k)
				row := src.Data[src.Idx(0, j, k):][:g.Nx]
				for i := range row {
					row[i] = gc * (gas.Data[gi+i] + dm.Data[di+i] - h.Cfg.MeanRho)
				}
			}
		}
		rhs[n] = src
	})
	if level == 0 {
		h.Stats.GravitySolves++
		g := grids[0]
		phi, err := gravity.SolvePeriodicWorkers(rhs[0], g.Dx, 1.0, h.Cfg.Workers)
		if err == nil {
			// Copy into the grid's wider-ghost field.
			for k := 0; k < g.Nz; k++ {
				for j := 0; j < g.Ny; j++ {
					copy(g.Phi.Data[g.Phi.Idx(0, j, k):][:g.Nx], phi.Data[phi.Idx(0, j, k):])
				}
			}
			g.Phi.ApplyPeriodicBC()
		}
	} else {
		waves := gravityWaves(grids)
		for pass := 0; pass < 2; pass++ { // sibling-exchange iterations
			h.Stats.GravitySolves += int64(len(grids))
			for _, wave := range waves {
				h.forGrids(len(wave), func(n, inner int) {
					// Dirichlet ghosts from the parent potential, then
					// overwritten with any sibling's fresher values.
					i := wave[n]
					g := grids[i]
					fillPhiGhosts(g, h.Cfg.Refine)
					for _, s := range grids {
						if s == g {
							continue
						}
						mesh.CopyOverlap(g.Phi, s.Phi, s.Lo[0]-g.Lo[0], s.Lo[1]-g.Lo[1], s.Lo[2]-g.Lo[2], 1)
					}
					mg := gravity.DefaultMGParams()
					mg.Workers = inner
					gravity.SolveMultigrid(g.Phi, rhs[i], g.Dx, mg)
					g.Phi.ApplyOutflowBC()
				})
			}
		}
	}
	h.forGrids(len(grids), func(n, inner int) {
		g := grids[n]
		gx, gy, gz := gravity.Accelerations(g.Phi, g.Dx, inner)
		if g.Level == 0 {
			gx.ApplyPeriodicBC()
			gy.ApplyPeriodicBC()
			gz.ApplyPeriodicBC()
		} else {
			gx.ApplyOutflowBC()
			gy.ApplyOutflowBC()
			gz.ApplyOutflowBC()
		}
		g.GAcc = [3]*mesh.Field3{gx, gy, gz}
	})
}

// forGrids runs fn(0..n-1) concurrently, one grid per task, and hands
// each its in-grid worker share. The budget is split between grid-level
// and in-grid parallelism: many small grids → one worker each; few grids →
// each gets a share of the pool for its inner loops. The share rounds up
// so a remainder (e.g. 8 workers, 9 grids) doesn't strand cores on the
// level's tail; the slight overcommit is absorbed by chunk stealing.
func (h *Hierarchy) forGrids(n int, fn func(n, inner int)) {
	if n == 0 {
		return
	}
	workers := par.Workers(h.Cfg.Workers)
	inner := (workers + n - 1) / n
	par.For(workers, n, 1, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			fn(t, inner)
		}
	})
}

// gravityWaves partitions a level's grids into dependency waves of grid
// indices, each ascending: the wave of grid j is one more than the
// largest wave of any earlier grid it touches (0 when there is none), so
// no two grids of a wave touch and every touching pair keeps its index
// order across waves.
func gravityWaves(grids []*Grid) [][]int {
	wave := make([]int, len(grids))
	var waves [][]int
	for j, g := range grids {
		for i, s := range grids[:j] {
			if wave[i] >= wave[j] && touches(s, g) {
				wave[j] = wave[i] + 1
			}
		}
		if wave[j] == len(waves) {
			waves = append(waves, nil)
		}
		waves[wave[j]] = append(waves[wave[j]], j)
	}
	return waves
}

// touches reports whether same-level grids a and b lie within one cell of
// each other, corners included: the condition for CopyOverlap with one
// ghost layer between them to copy anything, either way round.
func touches(a, b *Grid) bool {
	ah, bh := a.Hi(), b.Hi()
	for d := 0; d < 3; d++ {
		if a.Lo[d] > bh[d] || b.Lo[d] > ah[d] {
			return false
		}
	}
	return true
}

// fillPhiGhosts interpolates the parent's potential into the child's first
// ghost layer (the multigrid Dirichlet boundary).
func fillPhiGhosts(g *Grid, refine int) {
	p := g.Parent
	if p == nil {
		return
	}
	oi, oj, ok := offsetWithin(p, g, refine)
	rf := float64(refine)
	for k := -1; k <= g.Nz; k++ {
		kGhost := k < 0 || k >= g.Nz
		for j := -1; j <= g.Ny; j++ {
			jGhost := j < 0 || j >= g.Ny
			for i := -1; i <= g.Nx; i++ {
				if !(kGhost || jGhost || i < 0 || i >= g.Nx) {
					i = g.Nx - 1
					continue
				}
				fi3, fj3, fk3 := oi+i, oj+j, ok+k
				pi := mesh.FloorDiv(fi3, refine)
				pj := mesh.FloorDiv(fj3, refine)
				pk := mesh.FloorDiv(fk3, refine)
				zi := (float64(fi3-pi*refine)+0.5)/rf - 0.5
				zj := (float64(fj3-pj*refine)+0.5)/rf - 0.5
				zk := (float64(fk3-pk*refine)+0.5)/rf - 0.5
				c := p.Phi.At(pi, pj, pk)
				sx := 0.5 * (p.Phi.At(pi+1, pj, pk) - p.Phi.At(pi-1, pj, pk))
				sy := 0.5 * (p.Phi.At(pi, pj+1, pk) - p.Phi.At(pi, pj-1, pk))
				sz := 0.5 * (p.Phi.At(pi, pj, pk+1) - p.Phi.At(pi, pj, pk-1))
				g.Phi.Set(i, j, k, c+sx*zi+sy*zj+sz*zk)
			}
		}
	}
}

// depositDM deposits every particle in the hierarchy onto g's DM density
// field on the given workers (particles outside the grid's halo are
// skipped by the CIC kernel). A subgrid skips whole source grids whose
// particle bounds (particleBounds) cannot reach its halo: such a source
// would write nothing, so the density keeps its bits.
func (h *Hierarchy) depositDM(g *Grid, bounds map[*Grid][2][3]float64, workers int) {
	g.DMRho.Zero()
	geom := g.Geom()
	for _, lv := range h.Levels {
		for _, o := range lv {
			if o.Parts.Len() > 0 && (g.Level == 0 || reaches(bounds[o], g)) {
				nbody.DepositCICWorkers(o.Parts, g.DMRho, geom, workers)
			}
		}
	}
	if g.Level == 0 {
		nbody.FoldGhostsPeriodic(g.DMRho)
	}
}

// particleBounds returns the float64 bounding box {lo, hi} of the particle
// positions of every grid that holds particles.
func (h *Hierarchy) particleBounds() map[*Grid][2][3]float64 {
	out := map[*Grid][2][3]float64{}
	for _, lv := range h.Levels {
		for _, o := range lv {
			p := o.Parts
			if p.Len() == 0 {
				continue
			}
			inf := math.Inf(1)
			b := [2][3]float64{{inf, inf, inf}, {-inf, -inf, -inf}}
			for i := range p.Mass {
				for d, x := range [3]float64{p.X[i].Float64(), p.Y[i].Float64(), p.Z[i].Float64()} {
					b[0][d], b[1][d] = min(b[0][d], x), max(b[1][d], x)
				}
			}
			out[o] = b
		}
	}
	return out
}

// reaches reports whether a particle inside the bounds b could deposit
// onto g: per axis, b meets g's ghost-extended extent widened by two cells
// for float64 rounding.
func reaches(b [2][3]float64, g *Grid) bool {
	n := [3]int{g.Nx, g.Ny, g.Nz}
	for d := 0; d < 3; d++ {
		edge := g.Edge[d].Float64()
		if b[1][d] < edge-float64(g.DMRho.Ng+2)*g.Dx || b[0][d] > edge+float64(n[d]+g.DMRho.Ng+2)*g.Dx {
			return false
		}
	}
	return true
}

// liftEscapedParticles moves particles that drifted out of the grid's
// active region up to the first ancestor that contains them (or wraps them
// periodically at the root).
func (h *Hierarchy) liftEscapedParticles(g *Grid) {
	if g.Parent == nil {
		g.Parts.WrapPeriodic()
		return
	}
	kept := nbody.New(g.Parts.Len())
	for i := 0; i < g.Parts.Len(); i++ {
		if g.ContainsPos(g.Parts.X[i], g.Parts.Y[i], g.Parts.Z[i]) {
			kept.Add(g.Parts.X[i], g.Parts.Y[i], g.Parts.Z[i],
				g.Parts.Vx[i], g.Parts.Vy[i], g.Parts.Vz[i], g.Parts.Mass[i], g.Parts.ID[i])
			continue
		}
		anc := g.Parent
		for anc.Parent != nil && !anc.ContainsPos(g.Parts.X[i], g.Parts.Y[i], g.Parts.Z[i]) {
			anc = anc.Parent
		}
		anc.Parts.Add(g.Parts.X[i], g.Parts.Y[i], g.Parts.Z[i],
			g.Parts.Vx[i], g.Parts.Vy[i], g.Parts.Vz[i], g.Parts.Mass[i], g.Parts.ID[i])
	}
	g.Parts = kept
}

// fluxCorrect replaces the coarse flux through each child-boundary face
// with the time-accumulated fine flux, correcting the adjacent uncovered
// coarse cells (paper §3.2.1: mass, momentum and energy conservation as
// material flows into and out of refined regions).
func (h *Hierarchy) fluxCorrect(level int) {
	if level >= len(h.Levels) {
		return
	}
	r := h.Cfg.Refine
	fine := make([]float64, h.Root().Reg.NFields) // applyCorrection's per-cell scratch
	for _, g := range h.Levels[level] {
		for ci, c := range g.Children {
			taps := g.Taps[6*ci : 6*ci+6]
			lo, hi := childBox(g, c, r)
			for face := 0; face < 6; face++ {
				dir := face / 2
				high := face%2 == 1
				// Coarse cell just outside the face.
				var ci0 int
				if high {
					ci0 = hi[dir]
				} else {
					ci0 = lo[dir] - 1
				}
				n := [3]int{g.Nx, g.Ny, g.Nz}
				if ci0 < 0 || ci0 >= n[dir] {
					if g.Level == 0 {
						// The root is periodic: wrap to the image cell.
						ci0 = ((ci0 % n[dir]) + n[dir]) % n[dir]
					} else {
						continue // neighbour cell belongs to a sibling/parent
					}
				}
				t1lo, t1hi, t2lo, t2hi := tapTransverse(lo, hi, dir)
				for c2 := t2lo; c2 < t2hi; c2++ {
					for c1 := t1lo; c1 < t1hi; c1++ {
						i, j, k := cellFromFace(dir, ci0, c1, c2)
						if h.coveredByChild(g, i, j, k) {
							continue
						}
						// Fine flux: average child register over r^2
						// fine faces (dt-integrated).
						h.applyCorrection(g, c.Reg.Face[face], taps[face], fine, dir, high, i, j, k, c1, c2, (c1-t1lo)*r, (c2-t2lo)*r, r)
					}
				}
			}
		}
	}
}

func tapTransverse(lo, hi [3]int, dir int) (int, int, int, int) {
	switch dir {
	case 0:
		return lo[1], hi[1], lo[2], hi[2]
	case 1:
		return lo[0], hi[0], lo[2], hi[2]
	default:
		return lo[0], hi[0], lo[1], hi[1]
	}
}

func cellFromFace(dir, ci0, c1, c2 int) (int, int, int) {
	switch dir {
	case 0:
		return ci0, c1, c2
	case 1:
		return c1, ci0, c2
	default:
		return c1, c2, ci0
	}
}

// applyCorrection adjusts one coarse cell of g for the mismatch between
// the coarse flux (tap) and the child's dt-integrated fine flux (reg, the
// matching face of the child's register) through face cell (c1, c2); the
// r^2 fine faces under it start at (f1, f2) in the child's transverse
// coordinates. fine is caller-owned scratch of one entry per flux field.
func (h *Hierarchy) applyCorrection(g *Grid, reg, tap *hydro.FluxTap, fine []float64, dir int, high bool, i, j, k, c1, c2, f1, f2, r int) {
	r2 := float64(r * r)
	for q := range fine {
		var s float64
		for b := 0; b < r; b++ {
			for a := 0; a < r; a++ {
				s += reg.At(q, f1+a, f2+b)
			}
		}
		fine[q] = s / r2
	}
	h.Stats.FluxCorrCells++

	st := g.State
	rho := st.Rho.At(i, j, k)
	mom := [3]float64{
		rho * st.Vx.At(i, j, k),
		rho * st.Vy.At(i, j, k),
		rho * st.Vz.At(i, j, k),
	}
	etot := rho * st.Etot.At(i, j, k)

	sign := 1.0 // low face: cell to the left, face is its right face
	if high {
		sign = -1.0
	}
	inv := sign / g.Dx
	coarse := func(q int) float64 { return tap.At(q, c1, c2) }

	nrho := rho + inv*(coarse(hydro.FluxMass)-fine[hydro.FluxMass])
	if nrho <= h.Cfg.Hydro.FloorRho {
		return // refuse corrections that would evacuate the cell
	}
	mom[0] += inv * (coarse(hydro.FluxMomX) - fine[hydro.FluxMomX])
	mom[1] += inv * (coarse(hydro.FluxMomY) - fine[hydro.FluxMomY])
	mom[2] += inv * (coarse(hydro.FluxMomZ) - fine[hydro.FluxMomZ])
	etot += inv * (coarse(hydro.FluxEnergy) - fine[hydro.FluxEnergy])

	st.Rho.Set(i, j, k, nrho)
	st.Vx.Set(i, j, k, mom[0]/nrho)
	st.Vy.Set(i, j, k, mom[1]/nrho)
	st.Vz.Set(i, j, k, mom[2]/nrho)
	if e := etot / nrho; e > 0 {
		st.Etot.Set(i, j, k, e)
	}
	for sp := range st.Species {
		v := st.Species[sp].At(i, j, k) + inv*(coarse(hydro.FluxNumBase+sp)-fine[hydro.FluxNumBase+sp])
		if v < 0 {
			v = 0
		}
		st.Species[sp].Set(i, j, k, v)
	}
}

// coveredByChild reports whether coarse cell (i,j,k) of g lies under any
// of g's children.
func (h *Hierarchy) coveredByChild(g *Grid, i, j, k int) bool {
	r := h.Cfg.Refine
	gi, gj, gk := (g.Lo[0]+i)*r, (g.Lo[1]+j)*r, (g.Lo[2]+k)*r
	for _, c := range g.Children {
		if c.ContainsGlobal(gi, gj, gk) {
			return true
		}
	}
	return false
}

// project replaces every covered coarse cell with the conservative average
// of the fine solution (paper §3.2.1, the Projection step).
func (h *Hierarchy) project(level int) {
	if level+1 >= len(h.Levels) {
		return
	}
	r := h.Cfg.Refine
	r3 := float64(r * r * r)
	nsp := len(h.Root().State.Species)
	spSum := make([]float64, nsp)
	for _, g := range h.Levels[level] {
		for _, c := range g.Children {
			lo, _ := childBox(g, c, r)
			cs := c.State
			gs := g.State
			for pk := 0; pk < c.Nz/r; pk++ {
				for pj := 0; pj < c.Ny/r; pj++ {
					for pi := 0; pi < c.Nx/r; pi++ {
						var mRho, mMx, mMy, mMz, mE, mEi float64
						clear(spSum)
						for dk := 0; dk < r; dk++ {
							for dj := 0; dj < r; dj++ {
								for di := 0; di < r; di++ {
									fi := pi*r + di
									fj := pj*r + dj
									fk := pk*r + dk
									rho := cs.Rho.At(fi, fj, fk)
									mRho += rho
									mMx += rho * cs.Vx.At(fi, fj, fk)
									mMy += rho * cs.Vy.At(fi, fj, fk)
									mMz += rho * cs.Vz.At(fi, fj, fk)
									mE += rho * cs.Etot.At(fi, fj, fk)
									mEi += rho * cs.Eint.At(fi, fj, fk)
									for sp := 0; sp < nsp; sp++ {
										spSum[sp] += cs.Species[sp].At(fi, fj, fk)
									}
								}
							}
						}
						i, j, k := lo[0]+pi, lo[1]+pj, lo[2]+pk
						if i < 0 || i >= g.Nx || j < 0 || j >= g.Ny || k < 0 || k >= g.Nz {
							continue
						}
						h.Stats.ProjectedCells++
						rho := mRho / r3
						gs.Rho.Set(i, j, k, rho)
						gs.Vx.Set(i, j, k, mMx/mRho)
						gs.Vy.Set(i, j, k, mMy/mRho)
						gs.Vz.Set(i, j, k, mMz/mRho)
						gs.Etot.Set(i, j, k, mE/mRho)
						gs.Eint.Set(i, j, k, mEi/mRho)
						for sp := 0; sp < nsp; sp++ {
							gs.Species[sp].Set(i, j, k, spSum[sp]/r3)
						}
					}
				}
			}
		}
	}
}
