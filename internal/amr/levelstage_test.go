package amr_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/ep128"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// These tests pin the level stages that run grids concurrently — subgrid
// gravity in dependency waves, the parallel rebuild, the row-grouped
// prolongation under both — to the serial stages they replaced
// (export_test.go), bit for bit, at workers 1/2/3/8.

var stageWorkers = []int{1, 2, 3, 8}

// collapseChecksums are the state checksums of collapse at 16³, maxlevel
// 4, chemistry off, after root steps 8-11 (levels [1 1 1] … [1 1 16 94
// 16]), recorded with the serial stages at workers 1, 2, 3 and 8 alike.
var collapseChecksums = map[int]string{
	8:  "06a579b52fc2c5ed",
	9:  "025869afecdef095",
	10: "7aea75a43fca41ad",
	11: "04f338476c3be469",
}

func newCollapse(t testing.TB, workers int) *core.Simulation {
	t.Helper()
	sim, err := core.New("collapse", func(o *problems.Opts) {
		o.RootN, o.MaxLevel, o.Chemistry, o.Workers = 16, 4, false, workers
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestCollapseChecksumMatchesSerialStages(t *testing.T) {
	last := 11
	if testing.Short() {
		last = 10
	}
	for _, w := range stageWorkers {
		sim := newCollapse(t, w)
		for s := 1; s <= last; s++ {
			sim.Step()
			if want, ok := collapseChecksums[s]; ok && sim.H.ChecksumHex() != want {
				t.Fatalf("workers=%d step %d (levels %v): checksum %s, serial stages %s", w, s, sim.H.GridsPerLevel(), sim.H.ChecksumHex(), want)
			}
		}
	}
}

// collapseRaw is the snapshot of the collapse at root step 10, where level
// 3 holds 78 grids in 17 gravity waves; restoreCollapse makes it once.
var collapseRaw []byte

func restoreCollapse(t *testing.T, workers int) *amr.Hierarchy {
	t.Helper()
	if collapseRaw == nil {
		sim := newCollapse(t, 2)
		sim.RunSteps(10)
		raw, err := snapshot.Encode(sim.H, sim.Problem)
		if err != nil {
			t.Fatal(err)
		}
		collapseRaw = raw
	}
	h, _, err := snapshot.Read(bytes.NewReader(collapseRaw))
	if err != nil {
		t.Fatal(err)
	}
	h.Cfg.Workers = workers
	return h
}

// TestGravityLevelsMatchSerialOnCollapse solves every level of an evolved
// collapse hierarchy both ways, coarse to fine, and then steps it with
// each pipeline for a root step: the same bits and the same GravitySolves
// per level.
func TestGravityLevelsMatchSerialOnCollapse(t *testing.T) {
	for _, w := range stageWorkers {
		ref, h := restoreCollapse(t, w), restoreCollapse(t, w)
		if n := len(amr.GravityWaves(h, 3)); n < 2 || n == len(h.Levels[3]) {
			t.Fatalf("level 3 has %d grids in %d waves; want several waves of several grids", len(h.Levels[3]), n)
		}
		for l := range h.Levels {
			before, refBefore := h.Stats.GravitySolves, ref.Stats.GravitySolves
			amr.SerialSolveGravityLevel(ref, l)
			amr.SolveGravityLevel(h, l)
			what := fmt.Sprintf("workers=%d level %d", w, l)
			requireSameGravity(t, what, ref, h)
			if got, want := h.Stats.GravitySolves-before, ref.Stats.GravitySolves-refBefore; got != want {
				t.Fatalf("%s: %d solves, serial %d", what, got, want)
			}
		}
		ref.Physics = amr.SerialPipeline(ref)
		ref.Step()
		h.Step()
		what := fmt.Sprintf("workers=%d step", w)
		requireSameBits(t, what, ref, h)
		requireSameGravity(t, what, ref, h)
		if h.Stats.GravitySolves != ref.Stats.GravitySolves {
			t.Fatalf("%s: %d solves, serial %d", what, h.Stats.GravitySolves, ref.Stats.GravitySolves)
		}
	}
}

// subgridLevel builds a 16³ self-gravitating root with a particle lattice
// and one level of 4³ grids at the given corners (level-1 cells), hands
// every particle inside a subgrid to it and solves the root.
func subgridLevel(t *testing.T, workers int, corners [][3]int) *amr.Hierarchy {
	t.Helper()
	cfg := amr.DefaultConfig(16)
	cfg.SelfGravity, cfg.MeanRho, cfg.MaxLevel, cfg.DisableRebuild, cfg.Workers = true, 1, 1, true, workers
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := h.Root()
	for n := range root.State.Rho.Data {
		root.State.Rho.Data[n] = 1 + 0.5*math.Sin(0.37*float64(n))
	}
	var level []*amr.Grid
	for gi, c := range corners {
		g := amr.NewGrid(1, c, 4, 4, 4, cfg.RootN, cfg.Refine, cfg.NSpecies)
		g.Parent = root
		for n := range g.State.Rho.Data {
			g.State.Rho.Data[n] = 1 + 0.5*math.Cos(0.21*float64(n+gi))
		}
		level = append(level, g)
	}
	root.Children = level
	h.Levels = append(h.Levels, level)
	const np = 12
	for n := 0; n < np*np*np; n++ {
		pos := [3]ep128.Dd{}
		for d, i := range [3]int{n % np, n / np % np, n / (np * np)} {
			pos[d] = ep128.FromFloat64((float64(i) + 0.3) / np)
		}
		dst := root
		for _, g := range level {
			if g.ContainsPos(pos[0], pos[1], pos[2]) {
				dst = g
				break
			}
		}
		dst.Parts.Add(pos[0], pos[1], pos[2], 0, 0, 0, 1.0/(np*np*np), int64(n))
	}
	amr.SolveGravityLevel(h, 0)
	return h
}

// TestSubgridGravityWavesMatchSerial: hand-built levels whose grids chain
// (each touches the next through a face, an active overlap or only a
// corner: one wave per grid) or keep apart (one wave for all), solved both
// ways.
func TestSubgridGravityWavesMatchSerial(t *testing.T) {
	cases := []struct {
		name    string
		corners [][3]int
		waves   int
	}{
		{"chain", [][3]int{{0, 0, 0}, {4, 0, 0}, {6, 2, 2}, {10, 6, 2}, {14, 10, 6}, {18, 10, 6}}, 6},
		{"apart", [][3]int{{0, 0, 0}, {6, 0, 0}, {12, 0, 0}, {0, 6, 0}, {6, 6, 6}, {12, 12, 12}, {24, 24, 24}}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range stageWorkers {
				ref, h := subgridLevel(t, w, c.corners), subgridLevel(t, w, c.corners)
				if got := len(amr.GravityWaves(h, 1)); got != c.waves {
					t.Fatalf("%d waves, want %d", got, c.waves)
				}
				for pass := 0; pass < 2; pass++ {
					amr.SerialSolveGravityLevel(ref, 1)
					amr.SolveGravityLevel(h, 1)
					what := fmt.Sprintf("workers=%d solve %d", w, pass)
					requireSameGravity(t, what, ref, h)
					if h.Stats.GravitySolves != ref.Stats.GravitySolves {
						t.Fatalf("%s: %d solves, serial %d", what, h.Stats.GravitySolves, ref.Stats.GravitySolves)
					}
				}
			}
		})
	}
}

// requireSameTree compares grid placement, times, parent links and child
// order level by level, then the whole-state checksum (particles
// included) and the structure counters.
func requireSameTree(t *testing.T, what string, want, got *amr.Hierarchy) {
	t.Helper()
	index := func(h *amr.Hierarchy) map[*amr.Grid]int {
		m := map[*amr.Grid]int{}
		for _, lv := range h.Levels {
			for gi, g := range lv {
				m[g] = gi
			}
		}
		return m
	}
	wi, gi := index(want), index(got)
	for l, lv := range want.Levels {
		for n, g := range lv {
			o := got.Levels[l][n]
			if g.Lo != o.Lo || g.Nx != o.Nx || g.Ny != o.Ny || g.Nz != o.Nz || g.Time != o.Time ||
				(g.Parent == nil) != (o.Parent == nil) || (g.Parent != nil && wi[g.Parent] != gi[o.Parent]) {
				t.Fatalf("%s: level %d grid %d: serial %v, got %v", what, l, n, g, o)
			}
			var wc, gc []int
			for _, c := range g.Children {
				wc = append(wc, wi[c])
			}
			for _, c := range o.Children {
				gc = append(gc, gi[c])
			}
			if !reflect.DeepEqual(wc, gc) {
				t.Fatalf("%s: level %d grid %d children %v, serial %v", what, l, n, gc, wc)
			}
		}
	}
	if want.Checksum() != got.Checksum() {
		t.Fatalf("%s: checksum %s, serial %s", what, got.ChecksumHex(), want.ChecksumHex())
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, serial %+v", what, got.Stats, want.Stats)
	}
}

// TestRebuildMatchesSerial rebuilds an evolved collapse hierarchy both
// ways under refinement settings that move, split and drop grids, so new
// grids take part of their cells from old ones and the rest from the
// parent.
func TestRebuildMatchesSerial(t *testing.T) {
	tweaks := []func(*amr.Config){
		func(*amr.Config) {},
		func(c *amr.Config) { c.MaxGridSize = 8 },
		func(c *amr.Config) { c.RefineBuffer = 2 },
		func(c *amr.Config) { c.RefineBuffer, c.MaxGridSize = 0, 16 },
		func(c *amr.Config) { c.JeansN = 8 },
	}
	for _, w := range stageWorkers {
		ref, h := restoreCollapse(t, w), restoreCollapse(t, w)
		changed := false
		for i, tweak := range tweaks {
			before := h.GridsPerLevel()
			tweak(&ref.Cfg)
			tweak(&h.Cfg)
			amr.SerialRebuildHierarchy(ref, 1)
			h.RebuildHierarchy(1)
			what := fmt.Sprintf("workers=%d tweak %d", w, i)
			requireSameBits(t, what, ref, h)
			requireSameTree(t, what, ref, h)
			changed = changed || !reflect.DeepEqual(before, h.GridsPerLevel())
		}
		if !changed {
			t.Fatalf("workers=%d: no tweak changed the grid structure", w)
		}
	}
}
