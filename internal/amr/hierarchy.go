package amr

import (
	"fmt"
	"math"

	"repro/internal/hydro"
	"repro/internal/physics"
)

// Config assembles the physics and refinement configuration of a run.
type Config struct {
	RootN    int // root grid cells per side (power of two for the FFT)
	Refine   int // refinement factor r (integer, 2 or 4)
	MaxLevel int // deepest level allowed (root = 0)

	// The physics the operators read: hydro scheme, gravity and chemistry
	// switches, units and cosmology.
	physics.Params

	// Gravity.
	GravConst float64 // coefficient C in ∇²φ = C (ρ-ρ̄) at the initial epoch
	MeanRho   float64 // background (non-gravitating) total density

	// Refinement criteria (paper §3.2.3).
	MassThresholdGas float64 // refine cell when gas mass exceeds this (0 disables)
	MassThresholdDM  float64 // same for dark matter (0 disables)
	JeansN           float64 // cells per Jeans length (0 disables)
	RefineBuffer     int     // flag-dilation buffer cells
	MinEfficiency    float64 // Berger–Rigoutsos efficiency
	MaxGridSize      int     // cap on subgrid edge (cells)

	// Static refined region (the paper's nested zoom-in ICs): levels
	// 1..StaticLevels always refine the box [StaticLo, StaticHi) given
	// in box units.
	StaticLevels       int
	StaticLo, StaticHi [3]float64

	// DualEnergySpecies is the number of advected chemistry fields
	// (chem.NumSpecies when Chemistry is on, else 0).
	NSpecies int

	// DisableRebuild freezes the current grid structure (used by tests
	// and by static-mesh convergence studies).
	DisableRebuild bool

	// Workers is the single parallelism knob of the run, plumbed into
	// every hot kernel: the per-grid worker pools of stepLevelGrids, the
	// subgrid gravity waves and the rebuild (the shared-memory
	// realization of the paper's distributed-objects strategy), the hydro
	// pencil sweeps, multigrid smoothing, the root-grid FFT line batches,
	// the per-cell chemistry loop and the CIC particle deposit. par
	// conventions: 0 = runtime.NumCPU() (the default), 1 = serial, n =
	// exactly n workers. Results are bitwise identical at any setting,
	// the deposit included.
	Workers int
}

// DefaultConfig returns a ready-to-run configuration for a small
// non-cosmological test problem.
func DefaultConfig(rootN int) Config {
	return Config{
		RootN:            rootN,
		Refine:           2,
		MaxLevel:         6,
		Params:           physics.Params{Hydro: hydro.DefaultParams(), Solver: hydro.SolverPPM},
		GravConst:        1,
		MeanRho:          0,
		MassThresholdGas: 0,
		JeansN:           4,
		RefineBuffer:     1,
		MinEfficiency:    0.7,
		MaxGridSize:      32,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RootN < 4 || c.RootN&(c.RootN-1) != 0 {
		return fmt.Errorf("amr: RootN must be a power of two >= 4, got %d", c.RootN)
	}
	if c.Refine < 2 {
		return fmt.Errorf("amr: refinement factor must be >= 2, got %d", c.Refine)
	}
	if c.MaxLevel < 0 || c.MaxLevel > 40 {
		return fmt.Errorf("amr: MaxLevel %d out of range [0,40]", c.MaxLevel)
	}
	if err := c.Hydro.Validate(); err != nil {
		return err
	}
	return nil
}

// Hierarchy is the full adaptive grid tree plus simulation state.
type Hierarchy struct {
	Cfg    Config
	Levels [][]*Grid // Levels[l] lists the grids at level l; Levels[0] = {root}
	Time   float64   // root-grid time in code units
	Stats  Stats     // performance & structure accounting
	Timing Timing    // wall-clock component accounting (§5 table)
	// Physics is the operator pipeline executed per grid per level-step.
	// NewHierarchy installs DefaultPipeline; replace it or edit it as a
	// slice (append, slices.Insert) to add custom operators. Operators
	// requiring more than hydro.NGhost ghost zones are rejected at step
	// time.
	Physics physics.Pipeline
	parity  int
	plans   []siblingPlan // per-level sibling plans, see plan
}

// Stats accumulates the structure metrics the paper plots in Fig. 5 and
// the component timings of the §5 table.
type Stats struct {
	StepsTaken     int
	RebuildCount   int
	GridsCreated   int64
	GridsDeleted   int64
	MaxLevelEver   int
	CellUpdates    int64
	ChemCellCalls  int64
	GravitySolves  int64
	ParticleKicks  int64
	BoundaryFills  int64
	FluxCorrCells  int64
	ProjectedCells int64
}

// NewHierarchy creates a hierarchy with an empty root grid.
func NewHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := NewGrid(0, [3]int{0, 0, 0}, cfg.RootN, cfg.RootN, cfg.RootN, cfg.RootN, cfg.Refine, cfg.NSpecies)
	h := &Hierarchy{Cfg: cfg, Levels: [][]*Grid{{root}}}
	h.Physics = DefaultPipeline(h)
	return h, nil
}

// DefaultPipeline returns the standard operator-split pipeline for h: the
// level-wide Poisson solve followed by the per-grid sequence of
// physics.DefaultOperators (gravity half-kick, hydro, half-kick, N-body
// KDK, expansion drag, chemistry). Every operator guards itself against
// configurations where it does not apply, so one pipeline serves all
// problems.
func DefaultPipeline(h *Hierarchy) physics.Pipeline {
	return append(physics.Pipeline{&gravitySolveOp{h: h}}, physics.DefaultOperators()...)
}

// Root returns the root grid.
func (h *Hierarchy) Root() *Grid { return h.Levels[0][0] }

// Parity returns the Strang-splitting parity counter (persisted by
// checkpoints so a restart reproduces the sweep ordering exactly).
func (h *Hierarchy) Parity() int { return h.parity }

// SetParity restores the parity counter on restart.
func (h *Hierarchy) SetParity(p int) { h.parity = p }

// MaxLevel returns the index of the deepest currently populated level.
func (h *Hierarchy) MaxLevel() int {
	for l := len(h.Levels) - 1; l >= 0; l-- {
		if len(h.Levels[l]) > 0 {
			return l
		}
	}
	return 0
}

// NumGrids returns the total number of grids in the hierarchy.
func (h *Hierarchy) NumGrids() int {
	n := 0
	for _, lv := range h.Levels {
		n += len(lv)
	}
	return n
}

// GridsPerLevel returns the per-level grid counts.
func (h *Hierarchy) GridsPerLevel() []int {
	out := make([]int, len(h.Levels))
	for l, lv := range h.Levels {
		out[l] = len(lv)
	}
	return out
}

// WorkPerLevel estimates the computational work at each level: cells times
// the number of (fine) timesteps that level takes per root step, the
// quantity plotted in Fig. 5's bottom-right panel.
func (h *Hierarchy) WorkPerLevel() []float64 {
	out := make([]float64, len(h.Levels))
	for l, lv := range h.Levels {
		cells := 0
		for _, g := range lv {
			cells += g.NumCells()
		}
		steps := math.Pow(float64(h.Cfg.Refine), float64(l))
		out[l] = float64(cells) * steps
	}
	return out
}

// SpatialDynamicRange returns the resolution n·r^l of the deepest level
// (the paper's SDR definition, §3.1).
func (h *Hierarchy) SpatialDynamicRange() float64 {
	return float64(h.Cfg.RootN) * math.Pow(float64(h.Cfg.Refine), float64(h.MaxLevel()))
}

// TotalGasMass sums gas mass over the root grid (which, after projection,
// reflects the composite solution).
func (h *Hierarchy) TotalGasMass() float64 {
	return h.Root().GasMass()
}

// gravConstNow returns the Poisson coefficient at the current expansion
// factor: in comoving coordinates the coupling weakens as 1/a.
func (h *Hierarchy) gravConstNow() float64 {
	if h.Cfg.Cosmo == nil || h.Cfg.InitialA == 0 {
		return h.Cfg.GravConst
	}
	return h.Cfg.GravConst * h.Cfg.InitialA / h.Cfg.Cosmo.A
}

// FinestDx returns the cell size of the deepest populated level, falling
// back to the root spacing when that level is empty — the natural inner
// scale for radial-profile binning.
func (h *Hierarchy) FinestDx() float64 {
	lv := h.MaxLevel()
	if lv >= len(h.Levels) || len(h.Levels[lv]) == 0 {
		return 1.0 / float64(h.Cfg.RootN)
	}
	return h.Levels[lv][0].Dx
}

// FinestGridAt returns the deepest grid whose active region contains the
// box-unit position (x,y,z), starting the search from the root.
func (h *Hierarchy) FinestGridAt(x, y, z float64) *Grid {
	g := h.Root()
	for {
		found := false
		for _, c := range g.Children {
			lo := [3]float64{}
			hi := [3]float64{}
			n := [3]int{c.Nx, c.Ny, c.Nz}
			for d := 0; d < 3; d++ {
				lo[d] = c.Edge[d].Float64()
				hi[d] = lo[d] + float64(n[d])*c.Dx
			}
			if x >= lo[0] && x < hi[0] && y >= lo[1] && y < hi[1] && z >= lo[2] && z < hi[2] {
				g = c
				found = true
				break
			}
		}
		if !found {
			return g
		}
	}
}
