package amr_test

import (
	"math"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/problems"
)

// gravityFields are the products of a level solve, none of which
// requireSameBits covers except DMRho.
func gravityFields(g *amr.Grid) []*mesh.Field3 {
	return []*mesh.Field3{g.Phi, g.GAcc[0], g.GAcc[1], g.GAcc[2], g.DMRho}
}

func requireSameGravity(t *testing.T, what string, want, got *amr.Hierarchy) {
	t.Helper()
	for l, grids := range want.Levels {
		for gi, g := range grids {
			gf := gravityFields(got.Levels[l][gi])
			for fi, f := range gravityFields(g) {
				if f == nil && gf[fi] == nil {
					continue // a grid born in this step's rebuild: no solve yet
				}
				for n, v := range f.Data {
					if math.Float64bits(v) != math.Float64bits(gf[fi].Data[n]) {
						t.Fatalf("%s: level %d grid %d gravity field %d flat index %d: reference %v, got %v",
							what, l, gi, fi, n, v, gf[fi].Data[n])
					}
				}
			}
		}
	}
}

// TestRootGravitySolvedOncePerStep pins solveGravityLevel to the parent's
// two-pass solve (export_test.go): the periodic root is solved once per
// root step and lands on the same bits; subgrid levels still run both
// sibling-exchange passes.
func TestRootGravitySolvedOncePerStep(t *testing.T) {
	const steps = 3
	for _, c := range []struct {
		problem  string
		maxLevel int
	}{{"pancake", 0}, {"collapse", 1}} {
		t.Run(c.problem, func(t *testing.T) {
			build := func() *amr.Hierarchy {
				sim, err := core.New(c.problem, func(o *problems.Opts) {
					o.RootN, o.MaxLevel, o.Chemistry, o.Workers = 16, c.maxLevel, false, 2
				})
				if err != nil {
					t.Fatal(err)
				}
				return sim.H
			}
			ref, h := build(), build()
			ref.Physics = amr.ReferencePipeline(ref)
			if !h.Cfg.SelfGravity || h.Root().Parts.Len() == 0 {
				t.Fatalf("%s: want a self-gravitating run with particles", c.problem)
			}
			before := h.Stats.GravitySolves
			for s := 1; s <= steps; s++ {
				ref.Step()
				h.Step()
				requireSameGravity(t, "after step", ref, h)
				requireSameBits(t, "after step", ref, h)
			}
			if h.MaxLevel() != c.maxLevel {
				t.Fatalf("max level %d, want %d", h.MaxLevel(), c.maxLevel)
			}
			solves, refSolves := h.Stats.GravitySolves-before, ref.Stats.GravitySolves-before
			// The parent solved the root twice per root step; nothing
			// else may have changed, so the subgrid count is what is left.
			if refSolves-solves != steps {
				t.Fatalf("solves %d, two-pass %d: want exactly one fewer per root step (%d)", solves, refSolves, steps)
			}
			if c.maxLevel == 0 && solves != steps {
				t.Fatalf("unigrid: %d solves in %d root steps", solves, steps)
			}
			if c.maxLevel > 0 && solves <= steps {
				t.Fatalf("no subgrid solve ran: %d solves in %d root steps", solves, steps)
			}
		})
	}
}
