package amr_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
)

// TestGridStepAccounting: the grid steps of a level run concurrently and
// are billed afterwards, in grid order. The work counters must not depend
// on the worker count, every worker count must bill the same operators,
// and each operator-billed §5 row must equal the sum of its operators'
// per-op entries (times are summed in integer nanoseconds, so exactly).
func TestGridStepAccounting(t *testing.T) {
	for _, tc := range []struct {
		problem string
		steps   int
		opts    func(*problems.Opts)
	}{
		{"sedov", 17, func(o *problems.Opts) { o.RootN, o.MaxLevel = 16, 1 }},
		{"collapse", 2, func(o *problems.Opts) { o.RootN, o.MaxLevel = 16, 2 }},
	} {
		var want *core.Simulation
		for _, w := range stageWorkers {
			sim, err := core.New(tc.problem, tc.opts, func(o *problems.Opts) { o.Workers = w })
			if err != nil {
				t.Fatal(err)
			}
			sim.RunSteps(tc.steps)
			h := sim.H
			if h.MaxLevel() == 0 {
				t.Fatalf("%s: no refinement in %d steps; the test needs subgrids", tc.problem, tc.steps)
			}
			tm := h.Timing
			for _, row := range []struct {
				name      string
				got, want int64
			}{
				{"Hydro", int64(tm.Hydro), int64(tm.PerOp["hydro"])},
				{"Chemistry", int64(tm.Chemistry), int64(tm.PerOp["chemistry"])},
				{"NBody", int64(tm.NBody), int64(tm.PerOp["nbody"])},
				{"Gravity", int64(tm.Gravity), int64(tm.PerOp["gravity.kick"] + tm.PerOp["gravity.solve"])},
			} {
				if row.got != row.want {
					t.Errorf("%s workers=%d: Timing.%s = %d ns, its operators' PerOp entries sum to %d ns", tc.problem, w, row.name, row.got, row.want)
				}
			}
			if want == nil {
				want = sim
				if h.Stats.CellUpdates == 0 {
					t.Fatalf("%s: no cell updates counted", tc.problem)
				}
				continue
			}
			if h.Stats != want.H.Stats {
				t.Errorf("%s workers=%d: Stats %+v, workers=%d: %+v", tc.problem, w, h.Stats, stageWorkers[0], want.H.Stats)
			}
			if got, ref := slices.Sorted(maps.Keys(tm.PerOp)), slices.Sorted(maps.Keys(want.H.Timing.PerOp)); !slices.Equal(got, ref) {
				t.Errorf("%s workers=%d: PerOp keys %v, workers=%d: %v", tc.problem, w, got, stageWorkers[0], ref)
			}
		}
	}
}
