package amr_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// These tests pin setBoundaries — row-wise prolongation kernel, cached
// sibling plan, grid-parallel parent pass — to the per-cell walk and
// per-call sibling scan it replaced (export_test.go), bit for bit, on every
// cell of every field, ghost and active.

// staticConfig is a hydro-only configuration whose levels 1..levels always
// refine the cube [lo, hi)³.
func staticConfig(rootN, levels int, lo, hi float64) amr.Config {
	cfg := amr.DefaultConfig(rootN)
	cfg.SelfGravity = false
	cfg.JeansN = 0
	cfg.StaticLevels, cfg.MaxLevel = levels, levels
	cfg.StaticLo = [3]float64{lo, lo, lo}
	cfg.StaticHi = [3]float64{hi, hi, hi}
	cfg.MaxGridSize = 8
	return cfg
}

// buildStatic realizes cfg's static levels and then overwrites every
// allocated cell of every grid, ghosts included, with a reproducible
// pattern — smooth along x plus noise, so limited slopes are both taken
// and clipped — leaving no cell whose value a fill could leave alone
// unnoticed.
func buildStatic(t testing.TB, cfg amr.Config) *amr.Hierarchy {
	t.Helper()
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Root().State.Rho.Fill(1)
	h.RebuildHierarchy(1)
	if got := h.MaxLevel(); got != cfg.StaticLevels {
		t.Fatalf("static hierarchy reached level %d, want %d", got, cfg.StaticLevels)
	}
	scramble(h)
	return h
}

func fieldsOf(g *amr.Grid) []*mesh.Field3 { return append(g.State.Fields(), g.DMRho) }

func scramble(h *amr.Hierarchy) {
	for l, grids := range h.Levels {
		for gi, g := range grids {
			for fi, f := range fieldsOf(g) {
				seed := uint64(l)<<40 ^ uint64(gi)<<20 ^ uint64(fi)
				for n := range f.Data {
					seed = seed*6364136223846793005 + 1442695040888963407
					noise := float64(int64(seed>>11))/float64(1<<52) - 1
					f.Data[n] = math.Sin(0.4*float64(n)+float64(fi)) + 0.3*noise
				}
			}
		}
	}
}

// requireSameBits fails on the first cell whose bit pattern differs.
func requireSameBits(t *testing.T, what string, want, got *amr.Hierarchy) {
	t.Helper()
	if !reflect.DeepEqual(want.GridsPerLevel(), got.GridsPerLevel()) {
		t.Fatalf("%s: grids per level %v vs %v", what, want.GridsPerLevel(), got.GridsPerLevel())
	}
	for l, grids := range want.Levels {
		for gi, g := range grids {
			gf := fieldsOf(got.Levels[l][gi])
			for fi, f := range fieldsOf(g) {
				for n, v := range f.Data {
					if math.Float64bits(v) != math.Float64bits(gf[fi].Data[n]) {
						t.Fatalf("%s: level %d grid %d (%v) field %d flat index %d: reference %v, got %v",
							what, l, gi, g, fi, n, v, gf[fi].Data[n])
					}
				}
			}
		}
	}
}

func fillAllLevels(h *amr.Hierarchy, fill func(*amr.Hierarchy, int)) {
	for l := range h.Levels {
		fill(h, l)
	}
}

// overlappingPairs counts unordered same-level grid pairs sharing active
// cells.
func overlappingPairs(grids []*amr.Grid) int {
	n := 0
	for i, a := range grids {
		for _, b := range grids[i+1:] {
			ah, bh := a.Hi(), b.Hi()
			if a.Lo[0] < bh[0] && b.Lo[0] < ah[0] && a.Lo[1] < bh[1] && b.Lo[1] < ah[1] && a.Lo[2] < bh[2] && b.Lo[2] < ah[2] {
				n++
			}
		}
	}
	return n
}

func TestSetBoundariesMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  amr.Config
		// check asserts the property the case exists for.
		check func(t *testing.T, h *amr.Hierarchy)
	}{
		{"nested_maxgrid8", staticConfig(8, 2, 0.1, 0.9), func(t *testing.T, h *amr.Hierarchy) {
			if overlappingPairs(h.Levels[2]) == 0 {
				t.Fatal("no level-2 grids overlap in active cells")
			}
		}},
		{"halo_crosses_box_edge", staticConfig(16, 1, 0, 0.45), func(t *testing.T, h *amr.Hierarchy) {
			// A grid at the box corner: its low ghosts have negative
			// fine indices (FloorDiv of a negative argument) and its
			// siblings reach it through the periodic boundary.
			if g := h.Levels[1][0]; g.Lo != [3]int{} {
				t.Fatalf("first grid at %v, want the box corner", g.Lo)
			}
		}},
		{"periodic_self_image", func() amr.Config {
			cfg := staticConfig(8, 1, 0, 1)
			cfg.MaxGridSize = 32
			return cfg
		}(), func(t *testing.T, h *amr.Hierarchy) {
			if len(h.Levels[1]) != 1 || len(amr.SiblingLinks(h, 1)) != 26 {
				t.Fatalf("want one box-spanning grid with 26 self-images, got %d grids, %d links",
					len(h.Levels[1]), len(amr.SiblingLinks(h, 1)))
			}
			if r := amr.ResidualBoxes(h, 1)[0]; len(r) != 0 {
				t.Fatalf("self-images cover the whole ghost shell, yet %d residual boxes", len(r))
			}
		}},
		{"ghost_shell_covered", func() amr.Config {
			cfg := staticConfig(16, 1, 0, 1)
			cfg.MaxGridSize = 8
			return cfg
		}(), func(t *testing.T, h *amr.Hierarchy) {
			// The whole box refined in 8³ pieces: siblings and their
			// periodic images cover every ghost, so the parent pass
			// prolongs nothing.
			for gi, r := range amr.ResidualBoxes(h, 1) {
				if len(r) != 0 {
					t.Fatalf("grid %d of %d: %d residual boxes, want none", gi, len(h.Levels[1]), len(r))
				}
			}
		}},
		{"box_spanning_slab", func() amr.Config {
			cfg := staticConfig(8, 1, 0, 1)
			cfg.StaticLo = [3]float64{0, 0.3, 0.4}
			cfg.StaticHi = [3]float64{1, 0.7, 0.6}
			cfg.MaxGridSize = 32
			return cfg
		}(), func(t *testing.T, h *amr.Hierarchy) {
			// One grid spanning the box in x but not in y or z: its own
			// periodic images fill its x ghosts, the parent the rest.
			if len(h.Levels[1]) != 1 || h.Levels[1][0].Nx != 16 || h.Levels[1][0].Ny == 16 || h.Levels[1][0].Nz == 16 {
				t.Fatalf("want one grid spanning only x, got %v", h.Levels[1])
			}
			xImages := 0
			for _, l := range amr.SiblingLinks(h, 1) {
				if l[0] != 0 || l[1] != 0 {
					t.Fatalf("link %v is not a self-image", l)
				}
				if l[2] != 0 && l[3] == 0 && l[4] == 0 {
					xImages++
				}
			}
			if xImages != 2 || len(amr.ResidualBoxes(h, 1)[0]) == 0 {
				t.Fatalf("want 2 x self-images and a parent-filled remainder, got %d, %d residual boxes",
					xImages, len(amr.ResidualBoxes(h, 1)[0]))
			}
		}},
		{"refine4", func() amr.Config {
			cfg := staticConfig(8, 1, 0.25, 0.75)
			cfg.Refine = 4
			return cfg
		}(), nil},
		{"species", func() amr.Config {
			cfg := staticConfig(16, 1, 0.3, 0.7)
			cfg.NSpecies = 2
			return cfg
		}(), func(t *testing.T, h *amr.Hierarchy) {
			if len(fieldsOf(h.Levels[1][0])) != 9 {
				t.Fatal("species fields missing")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A second fill reads what the first wrote and reuses the
			// cached plan, so both are compared.
			ref, ref2 := buildStatic(t, c.cfg), buildStatic(t, c.cfg)
			if c.check != nil {
				c.check(t, ref)
			}
			requirePlanMatchesScan(t, c.name, ref)
			fillAllLevels(ref, amr.ReferenceSetBoundaries)
			fillAllLevels(ref2, amr.ReferenceSetBoundaries)
			fillAllLevels(ref2, amr.ReferenceSetBoundaries)
			for _, w := range []int{1, 2, 4} {
				cfg := c.cfg
				cfg.Workers = w
				h := buildStatic(t, cfg)
				fillAllLevels(h, amr.SetBoundaries)
				requireSameBits(t, fmt.Sprintf("workers=%d", w), ref, h)
				fillAllLevels(h, amr.SetBoundaries)
				requireSameBits(t, fmt.Sprintf("workers=%d, second fill", w), ref2, h)
			}
		})
	}
}

// TestSetBoundariesOverlappingSiblingsWorkerInvariant is the test a
// grid-parallel sibling pass fails, by value and under -race: snapToEven
// grows clustered boxes into their neighbours, so sibling copies write
// active cells other grids read and the exchange is order-dependent.
func TestSetBoundariesOverlappingSiblingsWorkerInvariant(t *testing.T) {
	cfg := staticConfig(16, 1, 0.2, 0.8)
	serial := buildStatic(t, cfg)
	if n := overlappingPairs(serial.Levels[1]); n == 0 {
		t.Fatal("no level-1 grids overlap in active cells; the test exercises nothing")
	}
	const fills = 3
	for i := 0; i < fills; i++ {
		fillAllLevels(serial, amr.SetBoundaries)
	}
	for _, w := range []int{2, 3, 4, 8} {
		cfg.Workers = w
		h := buildStatic(t, cfg)
		for i := 0; i < fills; i++ {
			fillAllLevels(h, amr.SetBoundaries)
		}
		requireSameBits(t, fmt.Sprintf("workers=%d vs serial", w), serial, h)
	}
}

// requirePlanMatchesScan compares every level's cached plan with a fresh
// reference scan, entry by entry, and its residual boxes with a fresh
// subtractBoxes over that scan and, cell by cell, with what the links
// leave unwritten.
func requirePlanMatchesScan(t *testing.T, what string, h *amr.Hierarchy) {
	t.Helper()
	for l := 1; l < len(h.Levels); l++ {
		if want, got := amr.ReferenceSiblingLinks(h, l), amr.SiblingLinks(h, l); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: level %d plan has %d links, a fresh scan %d (or their order differs)", what, l, len(got), len(want))
		}
		if want, got := amr.FreshResidualBoxes(h, l), amr.ResidualBoxes(h, l); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: level %d cached residual boxes differ from a fresh subtractBoxes", what, l)
		}
		if err := amr.ResidualCoverError(h, l); err != nil {
			t.Fatalf("%s: level %d: %v", what, l, err)
		}
	}
}

// TestSiblingPlanRevalidates drives the three ways a level's grid list is
// replaced behind the plan's back and checks the plan, and the fill that
// uses it, against the reference scan afterwards.
func TestSiblingPlanRevalidates(t *testing.T) {
	t.Run("RebuildHierarchy", func(t *testing.T) {
		build := func() *amr.Hierarchy {
			h := buildStatic(t, staticConfig(16, 1, 0.2, 0.8))
			fillAllLevels(h, amr.SetBoundaries) // plan built for the old grids
			h.Cfg.StaticHi = [3]float64{0.55, 0.7, 0.8}
			h.RebuildHierarchy(1)
			scramble(h)
			return h
		}
		ref, h := build(), build()
		before := len(amr.ReferenceSiblingLinks(buildStatic(t, staticConfig(16, 1, 0.2, 0.8)), 1))
		if after := len(amr.ReferenceSiblingLinks(h, 1)); after == before {
			t.Fatalf("rebuild left the sibling structure unchanged (%d links)", after)
		}
		requirePlanMatchesScan(t, "after rebuild", h)
		fillAllLevels(ref, amr.ReferenceSetBoundaries)
		fillAllLevels(h, amr.SetBoundaries)
		requireSameBits(t, "after rebuild", ref, h)
	})

	t.Run("snapshot_Resume_deeper", func(t *testing.T) {
		sim, err := core.New("collapse", func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Chemistry, o.Workers = 16, 1, false, 2 })
		if err != nil {
			t.Fatal(err)
		}
		sim.RunSteps(2)
		if sim.H.MaxLevel() != 1 {
			t.Fatalf("collapse did not refine: max level %d", sim.H.MaxLevel())
		}
		raw, err := snapshot.Encode(sim.H, sim.Problem)
		if err != nil {
			t.Fatal(err)
		}
		restore := func() *amr.Hierarchy {
			h, problem, err := snapshot.Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			// Deeper, and in smaller pieces so the new levels have siblings.
			h.Cfg.MaxLevel, h.Cfg.MaxGridSize, h.Cfg.Workers = 2, 8, 2
			core.Resume(h, problem).RunSteps(2)
			if h.MaxLevel() != 2 || len(h.Levels[1]) < 2 {
				t.Fatalf("resumed run has max level %d, %d level-1 grids; want 2 and several", h.MaxLevel(), len(h.Levels[1]))
			}
			return h
		}
		ref, h := restore(), restore()
		requireSameBits(t, "two restores", ref, h)
		requirePlanMatchesScan(t, "after resume", h)
		fillAllLevels(ref, amr.ReferenceSetBoundaries)
		fillAllLevels(h, amr.SetBoundaries)
		requireSameBits(t, "after resume", ref, h)
	})

	t.Run("nested_cosmological_ICs", func(t *testing.T) {
		build := func() *amr.Hierarchy {
			sim, err := core.New("zoom", func(o *problems.Opts) {
				o.RootN, o.MaxLevel, o.Chemistry, o.Workers = 8, 2, false, 2
			})
			if err != nil {
				t.Fatal(err)
			}
			if sim.H.MaxLevel() != 2 {
				t.Fatalf("zoom ICs have max level %d, want 2 static levels", sim.H.MaxLevel())
			}
			return sim.H
		}
		ref, h := build(), build()
		requirePlanMatchesScan(t, "nested ICs", h)
		fillAllLevels(ref, amr.ReferenceSetBoundaries)
		fillAllLevels(h, amr.SetBoundaries)
		requireSameBits(t, "nested ICs", ref, h)
	})
}

// TestReconcileSiblingFluxesMatchesReferenceScan: the flux reconciliation
// walks the plan's face-touching links; the result must equal the parent
// commit's own enumeration of touching faces.
func TestReconcileSiblingFluxesMatchesReferenceScan(t *testing.T) {
	build := func() *amr.Hierarchy {
		cfg := staticConfig(16, 1, 0.3, 0.7)
		h, err := amr.NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := h.Root()
		for _, f := range []*mesh.Field3{root.State.Rho, root.State.Etot, root.State.Eint} {
			f.Fill(1)
		}
		for k := 0; k < 16; k++ {
			for j := 0; j < 16; j++ {
				for i := 0; i < 16; i++ {
					root.State.Rho.Set(i, j, k, 1+0.5*math.Sin(float64(i+2*j+3*k)))
				}
			}
		}
		h.RebuildHierarchy(1)
		// A rebuild hands out fresh grids with empty registers; without
		// one they still hold the last level-1 step's fluxes.
		h.Cfg.DisableRebuild = true
		h.Step()
		if len(h.Levels[1]) < 2 {
			t.Fatal("no sibling grids")
		}
		return h
	}
	ref, h := build(), build()
	var before []*mesh.Field3
	for _, g := range h.Levels[1] {
		before = append(before, g.State.Rho.Clone())
	}
	amr.ReferenceReconcileSiblingFluxes(ref, 1)
	amr.ReconcileSiblingFluxes(h, 1)
	requireSameBits(t, "reconcile", ref, h)
	changed := false
	for gi, g := range h.Levels[1] {
		changed = changed || !reflect.DeepEqual(before[gi].Data, g.State.Rho.Data)
	}
	if !changed {
		t.Fatal("reconciliation touched no cell; the comparison exercises nothing")
	}
}
