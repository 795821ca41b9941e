// Package core is the public façade of the reproduction: a Simulation
// wraps the AMR hierarchy, problem setup, analysis shortcuts and the
// structure/performance series the paper's evaluation section plots.
//
// Typical use:
//
//	sim, err := core.New("collapse", func(o *problems.Opts) { o.Extra["delta"] = 60 })
//	sim.RunSteps(50)
//	profile, _ := sim.RadialProfileAtPeak(24)
//	fmt.Println(sim.UsageTable())
package core

import (
	"context"
	"fmt"
	"maps"
	"time"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/perf"
	"repro/internal/problems"
)

// Simulation bundles a hierarchy with its evolution history.
type Simulation struct {
	H *amr.Hierarchy
	// Problem is the registry name the simulation was built from (""
	// when constructed around a hand-built hierarchy); snapshots embed
	// it so restarts are self-describing.
	Problem string
	// History records hierarchy-structure samples per root step (the
	// Fig. 5 time series).
	History []StructureSample
	started time.Time
	wall    time.Duration
}

// New builds the named registered problem starting from its spec
// defaults, optionally adjusted by mutators:
//
//	sim, err := core.New("sedov", func(o *problems.Opts) { o.RootN = 32 })
func New(name string, mutate ...func(*problems.Opts)) (*Simulation, error) {
	spec, ok := problems.Get(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown problem %q (registered: %v)", name, problems.Names())
	}
	o := spec.Defaults
	// A fresh Extra map: mutators can set knobs without a nil check and
	// cannot write through into the registry's shared defaults.
	o.Extra = map[string]float64{}
	maps.Copy(o.Extra, spec.Defaults.Extra)
	for _, m := range mutate {
		m(&o)
	}
	h, err := problems.BuildSpec(spec, o)
	if err != nil {
		return nil, err
	}
	return &Simulation{H: h, Problem: name}, nil
}

// StructureSample is one Fig.-5 data point.
type StructureSample struct {
	Time      float64 // code units
	MaxLevel  int
	NumGrids  int
	GridsPer  []int
	WorkPer   []float64
	PeakRho   float64
	Expansion float64 // a, when cosmological
}

// Step advances one root timestep and records a structure sample.
func (s *Simulation) Step() float64 {
	t0 := time.Now()
	dt := s.H.Step()
	s.wall += time.Since(t0)
	s.record()
	return dt
}

// RunSteps advances n root steps.
func (s *Simulation) RunSteps(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunUntil advances until code time t (or maxSteps).
func (s *Simulation) RunUntil(t float64, maxSteps int) int {
	steps := 0
	for s.H.Time < t && steps < maxSteps {
		s.Step()
		steps++
	}
	return steps
}

// StepInfo is the per-root-step progress record Run hands to its
// observer (and the sim job service streams to watchers).
type StepInfo struct {
	Step     int     // 0-based index of the step just completed
	Time     float64 // code time after the step
	Dt       float64 // timestep taken
	MaxLevel int
	NumGrids int
}

// RunOpts configures Run: the run bounds plus the two hooks the durable
// job service threads through the stack — a per-step observer and a
// checkpoint hook, with a StartStep offset so a run resumed from a
// checkpoint keeps the interrupted run's global step numbering (cadence
// plans and artifact names depend on it).
type RunOpts struct {
	// MaxSteps bounds the root steps taken by this call (for a resumed
	// run: the steps remaining, not the job's total budget).
	MaxSteps int
	// MaxTime stops the run once code time reaches it (0 = no bound).
	MaxTime float64
	// StartStep is the global index of the first step this call takes —
	// 0 for a fresh run, checkpointStep+1 when resuming. StepInfo.Step is
	// numbered from it.
	StartStep int
	// Observe, when non-nil, is called after every completed root step.
	Observe func(StepInfo)
	// Checkpoint, when non-nil, is called after every completed root step
	// (after Observe); the callee decides whether a checkpoint is due —
	// typically an analysis.OutputPlan carrying a "checkpoint" output
	// request — and persists the encoded hierarchy. A checkpoint error
	// stops the run: a job that cannot persist its progress must fail
	// loudly, not run on with stale durability.
	Checkpoint func(StepInfo) error
}

// Run advances up to o.MaxSteps root steps under the given bounds and
// hooks (see RunOpts). Cancellation and checkpointing are observed only
// at root-step boundaries, so the hierarchy is always left in a
// consistent post-step state. Returns the number of steps taken by this
// call, and ctx.Err() when cancellation cut the run short or the first
// checkpoint-hook error.
func (s *Simulation) Run(ctx context.Context, o RunOpts) (int, error) {
	for n := 0; n < o.MaxSteps; n++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if o.MaxTime > 0 && s.H.Time >= o.MaxTime {
			return n, nil
		}
		dt := s.Step()
		info := StepInfo{
			Step:     o.StartStep + n,
			Time:     s.H.Time,
			Dt:       dt,
			MaxLevel: s.H.MaxLevel(),
			NumGrids: s.H.NumGrids(),
		}
		if o.Observe != nil {
			o.Observe(info)
		}
		if o.Checkpoint != nil {
			if err := o.Checkpoint(info); err != nil {
				return n + 1, err
			}
		}
	}
	return o.MaxSteps, nil
}

// Resume wraps a hierarchy restored from a snapshot/checkpoint
// (snapshot.Read) as a runnable Simulation — the restart path of the
// durable job service and the enzogo -restart flow. The caller is
// responsible for fixing runtime knobs that do not carry across hosts
// (h.Cfg.Workers) before stepping.
func Resume(h *amr.Hierarchy, problem string) *Simulation {
	return &Simulation{H: h, Problem: problem}
}

// Wall returns the accumulated evolution wall-clock time.
func (s *Simulation) Wall() time.Duration { return s.wall }

func (s *Simulation) record() {
	_, peak := analysis.DensestPoint(s.H)
	a := 0.0
	if s.H.Cfg.Cosmo != nil {
		a = s.H.Cfg.Cosmo.A
	}
	s.History = append(s.History, StructureSample{
		Time:      s.H.Time,
		MaxLevel:  s.H.MaxLevel(),
		NumGrids:  s.H.NumGrids(),
		GridsPer:  s.H.GridsPerLevel(),
		WorkPer:   s.H.WorkPerLevel(),
		PeakRho:   peak,
		Expansion: a,
	})
}

// RadialProfileAtPeak computes a Fig.-4 style profile about the current
// densest point.
func (s *Simulation) RadialProfileAtPeak(nbins int) (*analysis.Profile, error) {
	pos, _ := analysis.DensestPoint(s.H)
	rmin := s.H.FinestDx() * 0.5
	return analysis.RadialProfile(s.H, pos, analysis.ProfileParams{
		RMin:    rmin,
		RMax:    0.5,
		NBins:   nbins,
		Gamma:   s.H.Cfg.Hydro.Gamma,
		Units:   s.H.Cfg.Units,
		Workers: s.H.Cfg.Workers,
	})
}

// UsageTable renders the §5 component-usage table for the run so far.
func (s *Simulation) UsageTable() string {
	return perf.FormatUsageTable(perf.UsageTable(s.H.Timing))
}

// FlopReport summarizes the performance accounting (§5): estimated
// operations, sustained rate, and the virtual-rate comparison against a
// uniform grid at the current spatial dynamic range.
func (s *Simulation) FlopReport() string {
	flops := perf.EstimateFlops(s.H.Stats)
	rate := perf.SustainedRate(flops, s.wall.Seconds())
	sdr := s.H.SpatialDynamicRange()
	speedup := perf.SpeedupVsUniform(s.H.Stats, sdr, float64(s.H.Stats.StepsTaken))
	return fmt.Sprintf(
		"estimated flops:     %.3g\nwall time:           %.2fs\nsustained rate:      %.3g flop/s\nSDR:                 %.0f\nspeedup vs uniform:  %.3g×\n",
		flops, s.wall.Seconds(), rate, sdr, speedup)
}

// ZoomFrames renders n Fig.-3 style density slices, each zoomed by the
// given factor about the densest point, at res×res pixels.
func (s *Simulation) ZoomFrames(n int, factor float64, res int) [][][]float64 {
	pos, _ := analysis.DensestPoint(s.H)
	frames := make([][][]float64, n)
	half := 0.5
	for f := 0; f < n; f++ {
		frames[f] = analysis.DensitySlice(s.H, 2, pos[2],
			pos[0]-half, pos[0]+half, pos[1]-half, pos[1]+half, res, s.H.Cfg.Workers)
		half /= factor
	}
	return frames
}
