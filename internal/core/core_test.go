package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/problems"
)

func TestRunBoundsAndCancel(t *testing.T) {
	mini := func(o *problems.Opts) { o.RootN = 8; o.MaxLevel = 0; o.Workers = 1 }

	// Full run: takes exactly maxSteps and reports each one in order.
	sim, err := New("sedov", mini)
	if err != nil {
		t.Fatal(err)
	}
	var seen []StepInfo
	n, err := sim.Run(context.Background(), RunOpts{MaxSteps: 3, Observe: func(i StepInfo) { seen = append(seen, i) }})
	if err != nil || n != 3 {
		t.Fatalf("Run = %d,%v want 3,nil", n, err)
	}
	for i, info := range seen {
		if info.Step != i || info.Dt <= 0 || info.NumGrids < 1 {
			t.Fatalf("bad StepInfo %d: %+v", i, info)
		}
	}
	if seen[2].Time != sim.H.Time {
		t.Fatalf("last observed time %v != hierarchy time %v", seen[2].Time, sim.H.Time)
	}

	// A time bound stops the run once reached, before the step budget.
	sim2, err := New("sedov", mini)
	if err != nil {
		t.Fatal(err)
	}
	n, err = sim2.Run(context.Background(), RunOpts{MaxSteps: 1000, MaxTime: seen[0].Time})
	if err != nil || n >= 1000 || sim2.H.Time < seen[0].Time {
		t.Fatalf("maxTime bound: steps=%d err=%v t=%v", n, err, sim2.H.Time)
	}

	// Cancellation between steps surfaces ctx.Err with a partial count,
	// leaving the hierarchy in a consistent post-step state.
	sim3, err := New("sedov", mini)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n, err = sim3.Run(ctx, RunOpts{MaxSteps: 1000, Observe: func(i StepInfo) {
		if i.Step == 1 {
			cancel()
		}
	}})
	if err != context.Canceled || n != 2 {
		t.Fatalf("cancelled run = %d,%v want 2,context.Canceled", n, err)
	}
	if sim3.H.Stats.StepsTaken != 2 {
		t.Fatalf("hierarchy took %d steps after cancel at 2", sim3.H.Stats.StepsTaken)
	}
}

func TestNewByName(t *testing.T) {
	sim, err := New("sedov", func(o *problems.Opts) { o.RootN = 8; o.MaxLevel = 1 })
	if err != nil {
		t.Fatal(err)
	}
	if sim.Problem != "sedov" {
		t.Errorf("Problem = %q", sim.Problem)
	}
	if sim.H.Cfg.RootN != 8 {
		t.Errorf("mutator not applied: RootN %d", sim.H.Cfg.RootN)
	}
	sim.RunSteps(1)
	if len(sim.History) != 1 {
		t.Error("no history recorded")
	}
	if _, err := New("no-such-problem"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestNewUsesSpecDefaults(t *testing.T) {
	sim, err := New("khi")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := problems.Get("khi")
	if sim.H.Cfg.RootN != spec.Defaults.RootN {
		t.Errorf("RootN %d, want spec default %d", sim.H.Cfg.RootN, spec.Defaults.RootN)
	}
}

func TestNewMutatorSetsKnob(t *testing.T) {
	// coolsphere's defaults spell no knob, so the mutator's Extra must
	// still be a map it can write.
	mini := func(o *problems.Opts) { o.RootN, o.MaxLevel = 8, 0 }
	base, err := New("coolsphere", mini)
	if err != nil {
		t.Fatal(err)
	}
	denser, err := New("coolsphere", mini, func(o *problems.Opts) { o.Extra["delta"] = 30 })
	if err != nil {
		t.Fatal(err)
	}
	if base.H.ChecksumHex() == denser.H.ChecksumHex() {
		t.Fatal("the delta knob did not reach the build")
	}
	if spec, _ := problems.Get("coolsphere"); len(spec.Defaults.Extra) != 0 {
		t.Fatalf("a mutator wrote into the registry's defaults: %v", spec.Defaults.Extra)
	}
}

// newSedov builds the Sedov blast at the given size and energy.
func newSedov(rootN, maxLevel int, e0 float64) (*Simulation, error) {
	return New("sedov", func(o *problems.Opts) {
		o.RootN, o.MaxLevel = rootN, maxLevel
		o.Extra["e0"] = e0
	})
}

func TestSedovSimulation(t *testing.T) {
	sim, err := newSedov(16, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(3)
	if len(sim.History) != 3 {
		t.Fatalf("history %d entries", len(sim.History))
	}
	last := sim.History[len(sim.History)-1]
	if last.Time <= 0 || last.NumGrids < 1 {
		t.Fatalf("bad sample %+v", last)
	}
	if last.PeakRho <= 0 {
		t.Error("no peak density recorded")
	}
	table := sim.UsageTable()
	if !strings.Contains(table, "hydrodynamics") {
		t.Errorf("usage table:\n%s", table)
	}
	report := sim.FlopReport()
	if !strings.Contains(report, "flop/s") {
		t.Errorf("flop report:\n%s", report)
	}
}

func TestRunUntil(t *testing.T) {
	sim, err := newSedov(16, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	steps := sim.RunUntil(0.01, 100)
	if steps == 0 || sim.H.Time < 0.01 {
		t.Fatalf("RunUntil did not advance: %d steps, t=%v", steps, sim.H.Time)
	}
	if s2 := sim.RunUntil(0.01, 100); s2 != 0 {
		t.Error("RunUntil past target should take no steps")
	}
}

func TestRadialProfileAtPeak(t *testing.T) {
	sim, err := newSedov(16, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(4)
	pr, err := sim.RadialProfileAtPeak(10)
	if err != nil {
		t.Fatal(err)
	}
	if pr.CellsUsed == 0 {
		t.Fatal("empty profile")
	}
}

func TestZoomFrames(t *testing.T) {
	sim, err := newSedov(16, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(2)
	frames := sim.ZoomFrames(3, 10, 16)
	if len(frames) != 3 {
		t.Fatal("frame count")
	}
	for _, f := range frames {
		if len(f) != 16 || len(f[0]) != 16 {
			t.Fatal("frame shape")
		}
		for _, row := range f {
			for _, v := range row {
				if math.IsNaN(v) {
					t.Fatal("NaN pixel")
				}
			}
		}
	}
}
