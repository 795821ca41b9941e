package snapshot_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// TestEvolvedHierarchiesAreLevelTrees pins the invariant Read enforces on
// the parent links, on hierarchies the code actually builds: after the
// rebuilds of an evolved collapse and sedov run, every subgrid's parent is
// on the level above and its refined active box holds the subgrid's. Each
// hierarchy then survives Encode and Read with its checksum.
func TestEvolvedHierarchiesAreLevelTrees(t *testing.T) {
	runs := []struct {
		problem         string
		steps, minLevel int
		opts            func(*problems.Opts)
	}{
		{"collapse", 10, 3, func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Chemistry = 16, 4, false }},
		{"sedov", 20, 1, func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Extra["e0"] = 32, 2, 50 }},
	}
	for _, run := range runs {
		sim, err := core.New(run.problem, run.opts)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSteps(run.steps)
		h := sim.H
		if h.MaxLevel() < run.minLevel {
			t.Fatalf("%s: levels %v, want %d refined levels", run.problem, h.GridsPerLevel(), run.minLevel)
		}
		r := h.Cfg.Refine
		for l := 1; l < len(h.Levels); l++ {
			for _, g := range h.Levels[l] {
				p := g.Parent
				if p == nil || p.Level != l-1 {
					t.Fatalf("%s: %v has parent %v", run.problem, g, p)
				}
				for d := 0; d < 3; d++ {
					if g.Lo[d] < p.Lo[d]*r || g.Hi()[d] > p.Hi()[d]*r {
						t.Fatalf("%s: %v is not inside its parent %v", run.problem, g, p)
					}
				}
			}
		}
		data, err := snapshot.Encode(h, sim.Problem)
		if err != nil {
			t.Fatal(err)
		}
		h2, _, err := snapshot.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s (levels %v): %v", run.problem, h.GridsPerLevel(), err)
		}
		if h2.Checksum() != h.Checksum() {
			t.Fatalf("%s: checksum %s after Read, %s before", run.problem, h2.ChecksumHex(), h.ChecksumHex())
		}
	}
}
