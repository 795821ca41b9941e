package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/cosmology"
	"repro/internal/ep128"
)

func buildHierarchy(t testing.TB) (*amr.Hierarchy, amr.Config) {
	t.Helper()
	cfg := amr.DefaultConfig(8)
	cfg.SelfGravity = false
	cfg.JeansN = 0
	cfg.StaticLevels = 1
	cfg.StaticLo = [3]float64{0.25, 0.25, 0.25}
	cfg.StaticHi = [3]float64{0.75, 0.75, 0.75}
	cfg.MaxLevel = 1
	cfg.NSpecies = 2
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := h.Root()
	for idx := range root.State.Rho.Data {
		root.State.Rho.Data[idx] = 1 + 0.01*float64(idx%97)
		root.State.Eint.Data[idx] = 2 + 0.001*float64(idx%13)
		root.State.Etot.Data[idx] = root.State.Eint.Data[idx]
		root.State.Species[0].Data[idx] = 0.76 * root.State.Rho.Data[idx]
		root.State.Species[1].Data[idx] = 0.24 * root.State.Rho.Data[idx]
	}
	root.Parts.Add(ep128.FromFloat64(0.5).AddFloat(1e-19), ep128.FromFloat64(0.3),
		ep128.FromFloat64(0.7), 1, -2, 3, 0.125, 99)
	h.RebuildHierarchy(1)
	h.Time = 0.375
	return h, cfg
}

func TestRoundTrip(t *testing.T) {
	h, _ := buildHierarchy(t)
	var buf bytes.Buffer
	if err := Write(&buf, h, "synthetic"); err != nil {
		t.Fatal(err)
	}
	h2, problem, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if problem != "synthetic" {
		t.Errorf("problem name %q, want synthetic", problem)
	}
	if h2.Time != h.Time {
		t.Errorf("time %v != %v", h2.Time, h.Time)
	}
	if h2.NumGrids() != h.NumGrids() || h2.MaxLevel() != h.MaxLevel() {
		t.Fatalf("structure mismatch: %d/%d grids, %d/%d levels",
			h2.NumGrids(), h.NumGrids(), h2.MaxLevel(), h.MaxLevel())
	}
	// Field data bit-identical on every grid.
	for l := range h.Levels {
		if len(h.Levels[l]) != len(h2.Levels[l]) {
			t.Fatalf("level %d grid count mismatch", l)
		}
		for gi := range h.Levels[l] {
			a, b := h.Levels[l][gi], h2.Levels[l][gi]
			fa, fb := a.State.Fields(), b.State.Fields()
			for fi := range fa {
				for di := range fa[fi].Data {
					if fa[fi].Data[di] != fb[fi].Data[di] {
						t.Fatalf("field %d differs on L%d grid %d", fi, l, gi)
					}
				}
			}
			if a.Lo != b.Lo || a.Time != b.Time {
				t.Fatal("grid metadata differs")
			}
			// EPA edges exact, both components.
			for d := 0; d < 3; d++ {
				if !a.Edge[d].Eq(b.Edge[d]) {
					t.Fatal("EPA edge not exactly restored")
				}
			}
		}
	}
	// Particle with sub-float64 position offset restored exactly.
	var pg *amr.Grid
	for _, lv := range h2.Levels {
		for _, g := range lv {
			if g.Parts.Len() > 0 {
				pg = g
			}
		}
	}
	if pg == nil {
		t.Fatal("particle lost")
	}
	off := pg.Parts.X[0].SubFloat(0.5).Float64()
	if off != 1e-19 {
		t.Fatalf("EPA particle offset %v, want 1e-19", off)
	}
	if pg.Parts.ID[0] != 99 || pg.Parts.Mass[0] != 0.125 {
		t.Fatal("particle payload wrong")
	}
}

func TestRestartContinuesEvolution(t *testing.T) {
	// Stepping after restart must work and agree with uninterrupted
	// evolution (determinism across serialization).
	h, _ := buildHierarchy(t)
	var buf bytes.Buffer
	if err := Write(&buf, h, ""); err != nil {
		t.Fatal(err)
	}
	h.Step()
	h2, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2.Step()
	for idx, v := range h.Root().State.Rho.Data {
		if v != h2.Root().State.Rho.Data[idx] {
			t.Fatalf("restart diverged at %d: %v vs %v", idx, v, h2.Root().State.Rho.Data[idx])
		}
	}
}

func TestSelfDescribingConfig(t *testing.T) {
	// The header embeds the run config: a restart needs nothing from the
	// caller, and every physics switch round-trips.
	h, cfg := buildHierarchy(t)
	var buf bytes.Buffer
	if err := Write(&buf, h, "synthetic"); err != nil {
		t.Fatal(err)
	}
	h2, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := h2.Cfg
	if got.RootN != cfg.RootN || got.Refine != cfg.Refine || got.NSpecies != cfg.NSpecies {
		t.Fatalf("config did not round trip: got RootN=%d Refine=%d NSpecies=%d",
			got.RootN, got.Refine, got.NSpecies)
	}
	if got.StaticLevels != cfg.StaticLevels || got.StaticLo != cfg.StaticLo {
		t.Error("static-region config lost")
	}
	if got.MaxLevel != cfg.MaxLevel || got.SelfGravity != cfg.SelfGravity {
		t.Error("physics switches lost")
	}
}

func TestCosmoBackgroundIsFresh(t *testing.T) {
	// The decoded config owns its own expansion-factor integrator: the
	// old API forced callers to clone the Background by hand before a
	// restart (the Read(r, cfg) footgun).
	h, _ := buildHierarchy(t)
	h.Cfg.Cosmo = cosmology.NewBackground(cosmology.StandardCDM(), 0.05)
	h.Cfg.Cosmo.A = 0.0625
	var buf bytes.Buffer
	if err := Write(&buf, h, ""); err != nil {
		t.Fatal(err)
	}
	h2, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Cfg.Cosmo == nil || h2.Cfg.Cosmo == h.Cfg.Cosmo {
		t.Fatal("restored hierarchy must own a fresh Background")
	}
	if h2.Cfg.Cosmo.A != 0.0625 || h2.Cfg.Cosmo.T != h.Cfg.Cosmo.T {
		t.Fatalf("expansion state lost: a=%v t=%v", h2.Cfg.Cosmo.A, h2.Cfg.Cosmo.T)
	}
}

func TestLegacyV2ReadsTransparently(t *testing.T) {
	// A pre-format-3 stream — default-compression gzip, no header tag,
	// embedded Version 2 — must decode exactly as it always did.
	h, _ := buildHierarchy(t)
	var v3 bytes.Buffer
	if err := Write(&v3, h, "legacy"); err != nil {
		t.Fatal(err)
	}
	var f File
	zr, err := gzip.NewReader(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if zr.Comment != gzipComment {
		t.Fatalf("v3 gzip header tag %q, want %q", zr.Comment, gzipComment)
	}
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		t.Fatal(err)
	}
	f.Version = 2
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy) // default level, untagged header
	if err := gob.NewEncoder(zw).Encode(&f); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	h2, problem, err := Read(&legacy)
	if err != nil {
		t.Fatalf("legacy v2 stream rejected: %v", err)
	}
	if problem != "legacy" || h2.NumGrids() != h.NumGrids() {
		t.Fatalf("legacy decode lost content: problem=%q grids=%d/%d", problem, h2.NumGrids(), h.NumGrids())
	}
	for idx, v := range h.Root().State.Rho.Data {
		if h2.Root().State.Rho.Data[idx] != v {
			t.Fatalf("legacy decode differs at %d", idx)
		}
	}
}

func TestEncodeSizedReportsRawBytes(t *testing.T) {
	h, _ := buildHierarchy(t)
	data, raw, err := EncodeSized(h, "sized")
	if err != nil {
		t.Fatal(err)
	}
	if raw <= int64(len(data)) {
		t.Fatalf("uncompressed payload %d should exceed compressed %d on this compressible hierarchy", raw, len(data))
	}
	// The reported raw size is exactly the gob payload: decompressing the
	// stream must yield that many bytes.
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	buf := make([]byte, 32<<10)
	for {
		k, err := zr.Read(buf)
		n += int64(k)
		if err != nil {
			break
		}
	}
	if n != raw {
		t.Fatalf("raw size %d, decompressed %d", raw, n)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	var raw bytes.Buffer
	zw := gzip.NewWriter(&raw)
	if err := gob.NewEncoder(zw).Encode(&File{Version: FormatVersion + 1}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, _, err := Read(&raw); err == nil {
		t.Fatal("future version should be rejected")
	}
}

func TestSaveLoadFile(t *testing.T) {
	h, _ := buildHierarchy(t)
	path := filepath.Join(t.TempDir(), "snap.gob.gz")
	if err := Save(path, h, "synthetic"); err != nil {
		t.Fatal(err)
	}
	h2, problem, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if problem != "synthetic" {
		t.Errorf("problem %q", problem)
	}
	if math.Abs(h2.TotalGasMass()-h.TotalGasMass()) > 1e-15 {
		t.Fatal("mass changed through file round trip")
	}
}
