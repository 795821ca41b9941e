package problems

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/chem"
)

func TestSedovBlastScaling(t *testing.T) {
	// The Sedov-Taylor blast radius grows as t^{2/5}: run to two times
	// and compare the exponent. The full 32³ run takes ~8 minutes
	// single-core; short mode drops to 16³ over a shorter window, which
	// still resolves the scaling exponent and triggers refinement.
	rootN, tMid, tEnd := 32, 0.05, 0.15
	if testing.Short() {
		rootN, tMid, tEnd = 16, 0.04, 0.12
	}
	h, err := Build("sedov", Opts{RootN: rootN, MaxLevel: 1, Extra: map[string]float64{"e0": 10}})
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2, r1, r2 float64
	for h.Time < tMid {
		h.Step()
	}
	t1, r1 = h.Time, ShockRadius(h)
	for h.Time < tEnd {
		h.Step()
	}
	t2, r2 = h.Time, ShockRadius(h)
	if r1 <= 0 || r2 <= r1 {
		t.Fatalf("blast did not expand: r1=%v r2=%v", r1, r2)
	}
	exp := math.Log(r2/r1) / math.Log(t2/t1)
	if exp < 0.2 || exp > 0.65 {
		t.Errorf("blast radius exponent %v, want ~0.4 (Sedov t^{2/5})", exp)
	}
	// The blast must have triggered refinement.
	if h.MaxLevel() < 1 {
		t.Error("blast did not refine")
	}
}

func TestSedovSymmetry(t *testing.T) {
	h, err := Build("sedov", Opts{RootN: 16, Extra: map[string]float64{"e0": 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.Step()
	}
	root := h.Root()
	n := 16
	// Density must be mirror-symmetric about the center plane.
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n/2; i++ {
				a := root.State.Rho.At(i, j, k)
				b := root.State.Rho.At(n-1-i, j, k)
				if math.Abs(a-b) > 1e-9*(a+b) {
					t.Fatalf("asymmetry at (%d,%d,%d): %v vs %v", i, j, k, a, b)
				}
			}
		}
	}
}

func TestPancakeCollapses(t *testing.T) {
	h, err := Build("pancake", Opts{RootN: 16, MaxLevel: 2,
		Extra: map[string]float64{"astart": 0.05, "acollapse": 0.15}})
	if err != nil {
		t.Fatal(err)
	}
	// The density contrast must grow as the mode approaches its caustic.
	contrast := func() float64 {
		mn, mx := h.Root().State.Rho.MinMaxActive()
		return mx / mn
	}
	c0 := contrast()
	for s := 0; s < 25 && h.Cfg.Cosmo.A < 0.12; s++ {
		h.Step()
	}
	c1 := contrast()
	if c1 <= c0 {
		t.Fatalf("pancake contrast did not grow: %v -> %v", c0, c1)
	}
	if h.Cfg.Cosmo.A <= 0.05 {
		t.Fatal("expansion factor did not advance")
	}
	// Total gas mass conserved.
	// (Comoving density: mean fixed at OmegaB/OmegaM.)
	mean := h.Root().State.Rho.SumActive() / float64(16*16*16)
	if math.Abs(mean-0.06) > 0.01 {
		t.Errorf("mean baryon density %v, want 0.06", mean)
	}
}

func TestPrimordialCollapseRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	h, err := Build("collapse", Opts{RootN: 16, MaxLevel: 3, Chemistry: true})
	if err != nil {
		t.Fatal(err)
	}
	// A few steps: the clump must stay sane, chemistry must be evolving.
	var peak0 float64
	_, peak0 = analysis.DensestPoint(h)
	for s := 0; s < 3; s++ {
		h.Step()
	}
	pos, peak1 := analysis.DensestPoint(h)
	if peak1 <= 0 || math.IsNaN(peak1) {
		t.Fatalf("bad peak density %v", peak1)
	}
	// The collapse should raise the peak (gravity dominates pressure by
	// construction).
	if peak1 < 0.5*peak0 {
		t.Errorf("peak density fell sharply: %v -> %v", peak0, peak1)
	}
	// Peak near the box center.
	for d := 0; d < 3; d++ {
		if math.Abs(pos[d]-0.5) > 0.2 {
			t.Errorf("peak at %v, want near center", pos)
		}
	}
	if h.Stats.ChemCellCalls == 0 {
		t.Error("chemistry never ran")
	}
	// Species stay positive and HI remains dominant early on.
	g := h.FinestGridAt(pos[0], pos[1], pos[2])
	i := int((pos[0] - g.Edge[0].Float64()) / g.Dx)
	j := int((pos[1] - g.Edge[1].Float64()) / g.Dx)
	k := int((pos[2] - g.Edge[2].Float64()) / g.Dx)
	hi := g.State.Species[chem.HI].At(i, j, k)
	h2 := g.State.Species[chem.H2I].At(i, j, k)
	if hi <= 0 || h2 < 0 {
		t.Fatalf("bad species at peak: HI=%v H2=%v", hi, h2)
	}
	if h2 > hi {
		t.Errorf("H2 should not dominate this early")
	}
}

func TestCosmologicalZoomSetup(t *testing.T) {
	h, zic, err := cosmologicalZoom(Opts{RootN: 8, MaxLevel: 3, Seed: 7,
		Extra: map[string]float64{"staticlevels": 2, "redshift": 99}})
	if err != nil {
		t.Fatal(err)
	}
	if zic.Levels[2].N != 32 {
		t.Fatalf("fine IC level N=%d", zic.Levels[2].N)
	}
	// Static levels must exist.
	if h.MaxLevel() < 2 {
		t.Fatalf("static zoom levels missing: max level %d", h.MaxLevel())
	}
	// Particle mass budget: total DM mass = 1 - fb.
	var mdm float64
	for _, lv := range h.Levels {
		for _, g := range lv {
			mdm += g.Parts.TotalMass()
		}
	}
	if math.Abs(mdm-0.94) > 0.02 {
		t.Errorf("DM mass %v, want ~0.94", mdm)
	}
	// Gas mean = baryon fraction.
	mean := h.Root().State.Rho.SumActive() / 512
	if math.Abs(mean-0.06) > 0.015 {
		t.Errorf("mean gas density %v, want ~0.06", mean)
	}
	// The static region contains more particles per volume (fine lattice).
	// Count particles inside vs outside static region.
	inside, outside := 0, 0
	for _, lv := range h.Levels {
		for _, g := range lv {
			for i := 0; i < g.Parts.Len(); i++ {
				x := g.Parts.X[i].Float64()
				y := g.Parts.Y[i].Float64()
				z := g.Parts.Z[i].Float64()
				if x >= h.Cfg.StaticLo[0] && x < h.Cfg.StaticHi[0] &&
					y >= h.Cfg.StaticLo[1] && y < h.Cfg.StaticHi[1] &&
					z >= h.Cfg.StaticLo[2] && z < h.Cfg.StaticHi[2] {
					inside++
				} else {
					outside++
				}
			}
		}
	}
	volIn := math.Pow(h.Cfg.StaticHi[0]-h.Cfg.StaticLo[0], 3)
	if float64(inside)/volIn < float64(outside)/(1-volIn) {
		t.Errorf("zoom region not denser in particles: %d in (vol %v), %d out", inside, volIn, outside)
	}
}

func TestCollapseOptsValidation(t *testing.T) {
	if _, err := Build("collapse", Opts{}); err == nil {
		t.Fatal("zero RootN should fail")
	}
}
