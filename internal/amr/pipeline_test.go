package amr

import (
	"math"
	"testing"

	"repro/internal/cosmology"
	"repro/internal/physics"
	"repro/internal/units"
)

func TestCoolParamsRedshiftTracksExpansion(t *testing.T) {
	// Offline consumers (analysis.CoolingTime) read h.Cfg.CoolParams;
	// it must follow the expansion factor as the run evolves.
	h := uniformTestHierarchy(t)
	h.Cfg.Cosmo = cosmology.NewBackground(cosmology.StandardCDM(), 0.05)
	h.Cfg.InitialA = 0.05
	h.Cfg.Units = units.Cosmological(units.MpcCM, 1, 0.5, 0.05)
	h.Cfg.CoolParams.Redshift = 19
	h.Step()
	if want := 1/h.Cfg.Cosmo.A - 1; h.Cfg.CoolParams.Redshift != want {
		t.Fatalf("CoolParams.Redshift = %v, want %v (a=%v)",
			h.Cfg.CoolParams.Redshift, want, h.Cfg.Cosmo.A)
	}
}

// probeOp is a custom per-grid operator verifying the pipeline extension
// point: it counts applies and can impose a timestep constraint.
type probeOp struct {
	applies int
	lastDt  float64
	dtLimit float64
}

func (*probeOp) Name() string                 { return "probe" }
func (*probeOp) Component() physics.Component { return physics.CompOther }
func (*probeOp) NGhost() int                  { return 0 }
func (o *probeOp) Apply(_ *physics.Context, _ *physics.Grid, dt float64) {
	o.applies++
	o.lastDt = dt
}
func (o *probeOp) Timestep(*physics.Context, *physics.Grid) float64 {
	if o.dtLimit > 0 {
		return o.dtLimit
	}
	return math.Inf(1)
}

// levelProbeOp additionally implements physics.LevelOperator: its work
// runs once per level step, and its per-grid Apply must be skipped.
type levelProbeOp struct {
	probeOp
	levelCalls int
}

func (*levelProbeOp) Name() string                       { return "levelprobe" }
func (o *levelProbeOp) ApplyLevel(level int, dt float64) { o.levelCalls++ }

func uniformTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.JeansN = 0
	cfg.MaxLevel = 0
	cfg.DisableRebuild = true
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := h.Root()
	for idx := range root.State.Rho.Data {
		root.State.Rho.Data[idx] = 1
		root.State.Eint.Data[idx] = 1
		root.State.Etot.Data[idx] = 1
	}
	return h
}

func TestCustomOperatorRunsInPipeline(t *testing.T) {
	h := uniformTestHierarchy(t)
	probe := &probeOp{}
	lprobe := &levelProbeOp{}
	h.Physics = append(h.Physics, probe, lprobe)

	h.Step()
	h.Step()

	// One grid, one step per root step: the grid probe ran per
	// grid-step, the level probe once per level-step — and only in its
	// level stage (LevelOperators are skipped in the per-grid sweep).
	if probe.applies != 2 {
		t.Errorf("custom operator applied %d times, want 2", probe.applies)
	}
	if lprobe.levelCalls != 2 {
		t.Errorf("custom level stage ran %d times, want 2", lprobe.levelCalls)
	}
	if lprobe.applies != 0 {
		t.Errorf("LevelOperator's per-grid Apply ran %d times, want 0", lprobe.applies)
	}
	if probe.lastDt <= 0 {
		t.Error("operator saw no timestep")
	}
	// Per-operator timing reached the Timing table, billed to Other.
	if _, ok := h.Timing.PerOp["probe"]; !ok {
		t.Errorf("probe missing from PerOp table: %v", h.Timing.PerOp)
	}
	if h.Timing.PerOp["hydro"] == 0 {
		t.Error("hydro operator time not accounted")
	}
	if h.Timing.Other == 0 {
		t.Error("CompOther time not billed to Timing.Other")
	}
}

func TestCustomTimestepConstraint(t *testing.T) {
	h := uniformTestHierarchy(t)
	probe := &probeOp{dtLimit: 1e-4}
	h.Physics = append(h.Physics, probe)
	if dt := h.ComputeTimestep(0); dt != 1e-4 {
		t.Fatalf("custom constraint ignored: dt=%v", dt)
	}
}

func TestPipelineDefaultOrder(t *testing.T) {
	h := uniformTestHierarchy(t)
	want := []string{"gravity.solve", "gravity.kick", "hydro", "gravity.kick", "nbody", "expansion", "chemistry"}
	var got []string
	for _, op := range h.Physics {
		got = append(got, op.Name())
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pipeline %v, want %v", got, want)
		}
	}
}

func TestOversizedStencilRejected(t *testing.T) {
	h := uniformTestHierarchy(t)
	h.Physics = append(h.Physics, &wideOp{})
	defer func() {
		if recover() == nil {
			t.Fatal("stencil wider than the allocated ghosts must be rejected")
		}
	}()
	h.Step()
}

type wideOp struct{ probeOp }

func (*wideOp) Name() string { return "wide" }
func (*wideOp) NGhost() int  { return 99 }
