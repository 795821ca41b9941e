package analysis_test

// Reference-oracle tests for the sample lattice: the per-sample locator
// Slice and ProjectField used before the lattice (sampleCell: six wrap01s
// and one FinestGridAt descent per point) is kept here verbatim, and every
// pixel of the lattice kernels must equal it bit for bit. The package is
// external so the hierarchies can come from core (which imports analysis).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
)

// --- the oracle: the parent commit's kernels, verbatim and serial ---

func oracleSlice(h *amr.Hierarchy, axis int, coord float64, lo0, hi0, lo1, hi1 float64, n int,
	value func(g *amr.Grid, i, j, k int) float64) [][]float64 {
	out := make([][]float64, n)
	for b := range out {
		out[b] = make([]float64, n)
	}
	for b := 0; b < n; b++ {
		c1 := lo1 + (float64(b)+0.5)*(hi1-lo1)/float64(n)
		for a := 0; a < n; a++ {
			c0 := lo0 + (float64(a)+0.5)*(hi0-lo0)/float64(n)
			g, i, j, k := oracleSampleCell(h, axis, coord, c0, c1)
			out[b][a] = value(g, i, j, k)
		}
	}
	return out
}

func oracleProjectField(h *amr.Hierarchy, axis int, lo0, hi0, lo1, hi1 float64, n, nsamp int,
	value func(g *amr.Grid, i, j, k int) float64) [][]float64 {
	out := make([][]float64, n)
	for b := range out {
		out[b] = make([]float64, n)
	}
	dlos := 1.0 / float64(nsamp)
	for b := 0; b < n; b++ {
		c1 := lo1 + (float64(b)+0.5)*(hi1-lo1)/float64(n)
		for a := 0; a < n; a++ {
			c0 := lo0 + (float64(a)+0.5)*(hi0-lo0)/float64(n)
			var sum float64
			for s := 0; s < nsamp; s++ {
				coord := (float64(s) + 0.5) * dlos
				g, i, j, k := oracleSampleCell(h, axis, coord, c0, c1)
				sum += value(g, i, j, k) * dlos
			}
			out[b][a] = sum
		}
	}
	return out
}

func oracleSampleCell(h *amr.Hierarchy, axis int, coord, c0, c1 float64) (g *amr.Grid, i, j, k int) {
	var x, y, z float64
	switch axis {
	case 0:
		x, y, z = coord, c0, c1
	case 1:
		x, y, z = c0, coord, c1
	default:
		x, y, z = c0, c1, coord
	}
	g = h.FinestGridAt(oracleWrap01(x), oracleWrap01(y), oracleWrap01(z))
	i = oracleClampI(int((oracleWrap01(x)-g.Edge[0].Float64())/g.Dx), g.Nx-1)
	j = oracleClampI(int((oracleWrap01(y)-g.Edge[1].Float64())/g.Dx), g.Ny-1)
	k = oracleClampI(int((oracleWrap01(z)-g.Edge[2].Float64())/g.Dx), g.Nz-1)
	return g, i, j, k
}

func oracleWrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

func oracleClampI(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// --- hierarchies ---

func evolved(t *testing.T, problem string, rootN, maxLevel, steps int, extra map[string]float64) *amr.Hierarchy {
	t.Helper()
	sim, err := core.New(problem, func(o *problems.Opts) {
		o.RootN, o.MaxLevel, o.Workers = rootN, maxLevel, 0
		for k, v := range extra {
			o.Extra[k] = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunSteps(steps)
	return sim.H
}

// oracleHierarchies returns the three shapes the issue names: many
// overlapping same-level grids, a deep nest, and a bare root.
func oracleHierarchies(t *testing.T) map[string]*amr.Hierarchy {
	t.Helper()
	sedov := evolved(t, "sedov", 32, 2, 20, map[string]float64{"e0": 50})
	if len(sedov.Levels) < 2 || len(sedov.Levels[1]) < 60 {
		t.Fatalf("sedov hierarchy has %d levels, want >= 60 level-1 grids", len(sedov.Levels))
	}
	overlap := false
	for i, a := range sedov.Levels[1] {
		for _, b := range sedov.Levels[1][i+1:] {
			ah, bh := a.Hi(), b.Hi()
			if a.Lo[0] < bh[0] && b.Lo[0] < ah[0] && a.Lo[1] < bh[1] && b.Lo[1] < ah[1] && a.Lo[2] < bh[2] && b.Lo[2] < ah[2] {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("sedov level-1 grids share no active cells; the oracle would not exercise sibling order")
	}
	collapse := evolved(t, "collapse", 16, 4, 10, nil)
	if collapse.MaxLevel() < 2 {
		t.Fatalf("collapse hierarchy reached level %d, want a >= 3-level nest", collapse.MaxLevel())
	}
	return map[string]*amr.Hierarchy{
		"sedov":    sedov,
		"collapse": collapse,
		"root":     evolved(t, "sedov", 8, 0, 1, nil),
	}
}

func requireBitwise(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for b := range want {
		if len(got[b]) != len(want[b]) {
			t.Fatalf("%s: row %d has %d pixels, want %d", what, b, len(got[b]), len(want[b]))
		}
		for a := range want[b] {
			if math.Float64bits(got[b][a]) != math.Float64bits(want[b][a]) {
				t.Fatalf("%s: pixel (%d,%d) = %v, oracle %v", what, a, b, got[b][a], want[b][a])
			}
		}
	}
}

func TestLatticeMatchesPerSampleOracle(t *testing.T) {
	rho := func(g *amr.Grid, i, j, k int) float64 { return g.State.Rho.At(i, j, k) }
	windows := [][4]float64{
		{0, 1, 0, 1},                 // the box
		{0.2, 0.7, 0.3, 0.6},         // inside it
		{-0.3, 0.9, 0.25, 1.75},      // across the periodic edge: wrapped coordinates are non-monotonic
		{-1.5, 2.5, -0.75, 1.25},     // wider than the box
		{0.4375, 0.5625, 0.45, 0.55}, // zoomed on the refined center
	}
	// n ≠ nsamp, nsamp = 1, odd n, then two oversampled shapes whose equal
	// neighbours (along a line of sight, across a row, across rows) reuse
	// work; the 128³-sample one, the oracle's costliest, on the box only.
	shapes := [][2]int{{37, 23}, {16, 1}, {21, 64}, {64, 48}, {128, 128}}
	workers := []int{1, 2, 3, 7}
	for name, h := range oracleHierarchies(t) {
		// A slice plane exactly on grid edges (low and high), and at 0 and 1.
		fine := h.Levels[len(h.Levels)-1][0]
		for axis := 0; axis < 3; axis++ {
			lo := fine.Edge[axis].Float64()
			hi := lo + float64([3]int{fine.Nx, fine.Ny, fine.Nz}[axis])*fine.Dx
			for ci, coord := range []float64{0.5, 0, 1, lo, hi, -0.25, 0.999999} {
				w := windows[ci%len(windows)]
				n := 33 + 2*ci
				what := fmt.Sprintf("%s Slice axis %d coord %v window %v n %d", name, axis, coord, w, n)
				want := oracleSlice(h, axis, coord, w[0], w[1], w[2], w[3], n, rho)
				for _, nw := range workers {
					got := analysis.Slice(h, axis, coord, w[0], w[1], w[2], w[3], n, nw, rho)
					requireBitwise(t, fmt.Sprintf("%s workers %d", what, nw), got, want)
				}
			}
			for wi, w := range windows {
				for si, sh := range shapes {
					if wi > 0 && si == len(shapes)-1 {
						break
					}
					what := fmt.Sprintf("%s ProjectField axis %d window %v n %d nsamp %d", name, axis, w, sh[0], sh[1])
					want := oracleProjectField(h, axis, w[0], w[1], w[2], w[3], sh[0], sh[1], rho)
					// Every worker count on the box window, one (rotating) elsewhere.
					ws := workers
					if wi > 0 {
						ws = workers[(wi+si+axis)%len(workers):][:1]
					}
					for _, nw := range ws {
						got := analysis.ProjectField(h, axis, w[0], w[1], w[2], w[3], sh[0], sh[1], nw, rho)
						requireBitwise(t, fmt.Sprintf("%s workers %d", what, nw), got, want)
					}
				}
			}
		}
	}
}

// TestProjectionEvaluatesEachCellOnce counts value calls on a bare 16³
// root at 1 worker. A 128-px map with 128 samples per line of sight reads
// each of the 4096 cells exactly once (the per-sample walk read each 512
// times); a 128-px slice reads each of the 256 cells of its plane once.
func TestProjectionEvaluatesEachCellOnce(t *testing.T) {
	h, err := amr.NewHierarchy(amr.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	reads := map[[3]int]int{}
	value := func(g *amr.Grid, i, j, k int) float64 {
		reads[[3]int{i, j, k}]++
		return g.State.Rho.At(i, j, k)
	}
	for _, c := range []struct {
		what  string
		run   func()
		cells int
	}{
		{"ProjectField", func() { analysis.ProjectField(h, 2, 0, 1, 0, 1, 128, 128, 1, value) }, 4096},
		{"Slice", func() { analysis.Slice(h, 2, 0.5, 0, 1, 0, 1, 128, 1, value) }, 256},
	} {
		clear(reads)
		c.run()
		calls := 0
		for cell, r := range reads {
			calls += r
			if r != 1 {
				t.Errorf("%s read cell %v %d times", c.what, cell, r)
			}
		}
		if len(reads) != c.cells || calls != c.cells {
			t.Errorf("%s: %d value calls over %d cells, want %d each", c.what, calls, len(reads), c.cells)
		}
	}
}

// TestLatticeGreedyDescentWithOverlappingSiblings hand-places two
// children that share active cells. FinestGridAt takes the first child
// containing a point and never looks at the second there, and descends
// only into the chosen child's children; the lattice must agree on both.
func TestLatticeGreedyDescentWithOverlappingSiblings(t *testing.T) {
	cfg := amr.DefaultConfig(8)
	cfg.SelfGravity = false
	cfg.MaxLevel = 2
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mark := func(g *amr.Grid, v float64) *amr.Grid {
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				for i := 0; i < g.Nx; i++ {
					g.State.Rho.Set(i, j, k, v)
				}
			}
		}
		return g
	}
	newGrid := func(level int, lo [3]int, n int, v float64) *amr.Grid {
		return mark(amr.NewGrid(level, lo, n, n, n, cfg.RootN, cfg.Refine, 0), v)
	}
	root := mark(h.Root(), 1)
	// Level 1 spans 16 cells: first covers [2,10)³, second [6,14)³ — they
	// share [6,10)³. The grandchild (level 2, [16,32)³ = level-1 [8,16)³)
	// hangs off the *second* child, reaches into the shared cells, and
	// pokes out of its parent: outside the parent no descent reaches it.
	first := newGrid(1, [3]int{2, 2, 2}, 8, 2)
	second := newGrid(1, [3]int{6, 6, 6}, 8, 3)
	grand := newGrid(2, [3]int{16, 16, 16}, 16, 4)
	root.Children = []*amr.Grid{first, second}
	first.Parent, second.Parent, grand.Parent = root, root, second
	second.Children = []*amr.Grid{grand}

	rho := func(g *amr.Grid, i, j, k int) float64 { return g.State.Rho.At(i, j, k) }
	const n = 32 // one sample per level-2 cell
	img := analysis.Slice(h, 2, 0.53, 0, 1, 0, 1, n, 1, rho)
	requireBitwise(t, "overlap slice", img, oracleSlice(h, 2, 0.53, 0, 1, 0, 1, n, rho))
	at := func(x, y float64) float64 { return img[int(y*n)][int(x*n)] }
	for _, c := range []struct {
		x, y, want float64
		why        string
	}{
		{0.05, 0.05, 1, "outside both children: root"},
		{0.2, 0.2, 2, "first child only"},
		{0.45, 0.45, 2, "shared cells resolve to the first child"},
		{0.55, 0.55, 2, "shared cells under the second child's grandchild still resolve to the first child"},
		{0.45, 0.7, 3, "second child only"},
		{0.7, 0.7, 4, "grandchild, where only the second child covers"},
		{0.9, 0.9, 1, "grandchild outside its parent is unreachable: root"},
	} {
		if got := at(c.x, c.y); got != c.want {
			t.Errorf("sample (%v,%v) = %v, want %v: %s", c.x, c.y, got, c.want, c.why)
		}
	}
	for axis := 0; axis < 3; axis++ {
		got := analysis.ProjectField(h, axis, -0.2, 1.1, 0, 1, 29, 32, 3, rho)
		requireBitwise(t, fmt.Sprintf("overlap projection axis %d", axis), got,
			oracleProjectField(h, axis, -0.2, 1.1, 0, 1, 29, 32, rho))
	}
}

// TestPinnedArtifactHashes is the end-to-end form of "bitwise identical":
// the SHA-256 of a projection PGM, a slice PGM and a pyramid container,
// recorded from the binary of the commit before the lattice, must come out
// of the same requests today — evolved and evaluated at 1 worker and at 3.
func TestPinnedArtifactHashes(t *testing.T) {
	raw, err := os.ReadFile("testdata/artifact_hashes.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		Outputs []string `json:"outputs"`
		Runs    []struct {
			Steps  int      `json:"steps"`
			SHA256 []string `json:"sha256"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	var reqs []analysis.OutputRequest
	for _, spec := range pins.Outputs {
		r, err := analysis.ParseOutputRequest(spec)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for _, run := range pins.Runs {
		for _, workers := range []int{1, 3} {
			sim, err := core.New("sedov", func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Workers = 16, 1, workers })
			if err != nil {
				t.Fatal(err)
			}
			sim.RunSteps(run.Steps)
			plan, err := analysis.NewOutputPlan(reqs)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			err = plan.Finish(sim.H, "sedov", run.Steps-1, workers, func(art analysis.Artifact) error {
				sum := sha256.Sum256(art.Data)
				if got := hex.EncodeToString(sum[:]); got != run.SHA256[i] {
					t.Errorf("steps %d, %d workers: %s sha256 %s, pinned %s", run.Steps, workers, art.Name, got, run.SHA256[i])
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(run.SHA256) {
				t.Fatalf("steps %d: %d artifacts, pinned %d", run.Steps, i, len(run.SHA256))
			}
		}
	}
}
