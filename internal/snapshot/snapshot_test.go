package snapshot

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/gob"
	"io"
	"math"
	"path/filepath"
	"strings"
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

func encode(t testing.TB, h *amr.Hierarchy, problem string) []byte {
	t.Helper()
	data, err := Encode(h, problem)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	h, _ := buildHierarchy(t)
	h2, problem, err := Read(bytes.NewReader(encode(t, h, "synthetic")))
	if err != nil {
		t.Fatal(err)
	}
	if problem != "synthetic" {
		t.Errorf("problem name %q, want synthetic", problem)
	}
	if h2.Time != h.Time || h2.Parity() != h.Parity() {
		t.Errorf("time %v / parity %d, want %v / %d", h2.Time, h2.Parity(), h.Time, h.Parity())
	}
	if h2.NumGrids() != h.NumGrids() || h2.MaxLevel() != h.MaxLevel() {
		t.Fatalf("structure mismatch: %d/%d grids, %d/%d levels",
			h2.NumGrids(), h.NumGrids(), h2.MaxLevel(), h.MaxLevel())
	}
	// Every field bit (ghost zones included), every placement and time,
	// every particle: the state checksum covers them all.
	if h2.Checksum() != h.Checksum() {
		t.Fatalf("checksum %s after the round trip, %s before", h2.ChecksumHex(), h.ChecksumHex())
	}
	for l := range h.Levels {
		for gi := range h.Levels[l] {
			a, b := h.Levels[l][gi], h2.Levels[l][gi]
			for d := 0; d < 3; d++ {
				if a.Edge[d] != b.Edge[d] {
					t.Fatal("EPA edge not exactly restored")
				}
			}
			if (a.Parent == nil) != (b.Parent == nil) || len(a.Children) != len(b.Children) {
				t.Fatalf("L%d grid %d: tree links differ", l, gi)
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
	if off := pg.Parts.X[0].SubFloat(0.5).Float64(); off != 1e-19 {
		t.Fatalf("EPA particle offset %v, want 1e-19", off)
	}
	if pg.Parts.ID[0] != 99 || pg.Parts.Mass[0] != 0.125 {
		t.Fatal("particle payload wrong")
	}
}

// TestRestartContinuesEvolution: stepping after a restart agrees with
// uninterrupted evolution bit for bit, at either worker count.
func TestRestartContinuesEvolution(t *testing.T) {
	for _, w := range []int{1, 2} {
		h, _ := buildHierarchy(t)
		h.Cfg.Workers = w
		data := encode(t, h, "")
		h.Step()
		h2, _, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		h2.Cfg.Workers = w
		h2.Step()
		if h2.Checksum() != h.Checksum() {
			t.Fatalf("workers=%d: restart diverged: %s vs %s", w, h2.ChecksumHex(), h.ChecksumHex())
		}
	}
}

// TestEncodeWorkerCountInvariant: a hierarchy with particles on both levels
// and grids without any encodes to the same bytes at any worker count, and
// Read followed by Encode gives those bytes back.
func TestEncodeWorkerCountInvariant(t *testing.T) {
	h, _ := buildHierarchy(t)
	fine := h.Levels[1][0]
	for i := 0; i < 5; i++ {
		x := ep128.FromFloat64(0.4 + 0.05*float64(i)).AddFloat(1e-20)
		fine.Parts.Add(x, ep128.FromFloat64(0.5), x, float64(i), -1, 0.5, 0.25, int64(100+i))
	}
	h.Cfg.Workers = 1
	want := encode(t, h, "synthetic")
	for _, w := range []int{2, 3, 8} {
		h.Cfg.Workers = w
		if got := encode(t, h, "synthetic"); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: %d bytes differ from workers=1's %d", w, len(got), len(want))
		}
	}
	h2, _, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(t, h2, "synthetic"); !bytes.Equal(again, want) {
		t.Fatal("Read then Encode is not a fixed point")
	}
}

func TestSelfDescribingConfig(t *testing.T) {
	// The header embeds the run config: a restart needs nothing from the
	// caller, and every physics switch round-trips.
	h, cfg := buildHierarchy(t)
	h2, _, err := Read(bytes.NewReader(encode(t, h, "synthetic")))
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
	h2, _, err := Read(bytes.NewReader(encode(t, h, "")))
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

// gzipGobStream is what format 3 (and, with another gzip level, format 2)
// put on the wire: one gzip member holding one gob message whose first
// field is the version.
func gzipGobStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Comment = "repro snapshot format 3"
	if err := gob.NewEncoder(zw).Encode(struct {
		Version int
		Problem string
	}{3, "sedov"}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	return buf.Bytes()
}

func TestOldFormatRefusedByName(t *testing.T) {
	_, _, err := Read(bytes.NewReader(gzipGobStream(t)))
	if err == nil || !strings.Contains(err.Error(), "gzip+gob") || !strings.Contains(err.Error(), "format 2 or 3") {
		t.Fatalf("a format-3 stream: %v, want the named-format refusal", err)
	}
	// A format-4 stream shared the magic; only its version byte differs
	// from a stream this build writes.
	h, _ := buildHierarchy(t)
	data := encode(t, h, "")
	data[len(magic)] = 4
	if _, _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "format-4") {
		t.Fatalf("a format-4 stream: %v, want the named-format refusal", err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	h, _ := buildHierarchy(t)
	data := encode(t, h, "")
	data[len(magic)] = FormatVersion + 1
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("future version should be rejected")
	}
}

// TestEncodeSizedReportsRawBytes: the raw size is exactly what the records
// inflate to, and more than the stream on this compressible hierarchy.
func TestEncodeSizedReportsRawBytes(t *testing.T) {
	h, _ := buildHierarchy(t)
	data, raw, err := EncodeSized(h, "sized")
	if err != nil {
		t.Fatal(err)
	}
	if raw <= int64(len(data)) {
		t.Fatalf("raw records %d should exceed the %d-byte stream on this compressible hierarchy", raw, len(data))
	}
	_, recs, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, rec := range recs {
		k, _ := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(rec[4:])))
		n += k
	}
	if n != raw {
		t.Fatalf("raw size %d, records inflate to %d", raw, n)
	}
}

func TestSaveLoadFile(t *testing.T) {
	h, _ := buildHierarchy(t)
	path := filepath.Join(t.TempDir(), "run.snap")
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
	if math.Abs(h2.TotalGasMass()-h.TotalGasMass()) > 1e-15 || h2.Checksum() != h.Checksum() {
		t.Fatal("state changed through the file round trip")
	}
}
