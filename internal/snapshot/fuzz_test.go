package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"io"
	"runtime"
	"testing"
)

// validFile decodes the File behind a freshly written snapshot of the
// test hierarchy, for tests to damage and re-encode.
func validFile(t testing.TB, data []byte) File {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// encodeFile serializes f the way Write does, with no checks — what a
// hostile or corrupted sender can put on the wire.
func encodeFile(t testing.TB, f File) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(&f); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	return buf.Bytes()
}

// malformations are well-formed gob streams whose numbers lie about the
// data they carry; each used to panic or allocate without bound in Read.
var malformations = []struct {
	name   string
	damage func(f *File)
}{
	{"no grids", func(f *File) { f.Grids = nil }},
	{"root not first", func(f *File) { f.Grids[0], f.Grids[1] = f.Grids[1], f.Grids[0] }},
	{"two roots", func(f *File) { f.Grids[1].Level = 0 }},
	{"negative level", func(f *File) { f.Grids[1].Level = -1 }},
	{"level past MaxLevel", func(f *File) { f.Grids[1].Level = f.Config.MaxLevel + 1 }},
	{"huge root", func(f *File) {
		f.Config.RootN = 1 << 20
		f.Grids[0].Nx, f.Grids[0].Ny, f.Grids[0].Nz = 1<<20, 1<<20, 1<<20
	}},
	{"root smaller than RootN", func(f *File) { f.Grids[0].Nx = 4 }},
	{"huge subgrid", func(f *File) { f.Grids[1].Nx = 1 << 40 }},
	{"zero extent", func(f *File) { f.Grids[1].Ny = 0 }},
	{"negative extent", func(f *File) { f.Grids[1].Nz = -8 }},
	{"outside the domain", func(f *File) { f.Grids[1].Lo[0] = 1 << 30 }},
	{"negative origin", func(f *File) { f.Grids[1].Lo[2] = -1 }},
	{"overflowing refinement", func(f *File) { f.Config.Refine = 1 << 62 }},
	{"huge species count", func(f *File) { f.Config.NSpecies = 1 << 40 }},
	{"negative species count", func(f *File) { f.Config.NSpecies = -1 }},
	{"missing field", func(f *File) { f.Grids[1].Fields = f.Grids[1].Fields[1:] }},
	{"short field", func(f *File) { f.Grids[1].Fields[3] = f.Grids[1].Fields[3][:10] }},
	{"fields for another extent", func(f *File) { f.Grids[1].Nx++ }},
	{"short particle array", func(f *File) { f.Grids[1].PXHi = nil }},
	{"short particle IDs", func(f *File) { f.Grids[1].PID = nil }},
	{"extra particle velocities", func(f *File) { f.Grids[0].PVz = append(f.Grids[0].PVz, 1, 2) }},
	{"bad parent", func(f *File) { f.Grids[1].ParentIdx = 99 }},
	{"invalid config", func(f *File) { f.Config.RootN = 7 }},
}

// TestReadRejectsMalformedRecords: every malformation is an error from
// Read — not a panic, not an allocation sized by the lie.
func TestReadRejectsMalformedRecords(t *testing.T) {
	h, _ := buildHierarchy(t)
	good, err := Encode(h, "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	if f := validFile(t, good); len(f.Grids) < 2 || len(f.Grids[1].PMass) == 0 {
		t.Fatal("the test hierarchy needs a subgrid holding a particle for the cases below to bite")
	}
	for _, m := range malformations {
		f := validFile(t, good) // a fresh copy: damage must not leak between cases
		m.damage(&f)
		if _, _, err := Read(bytes.NewReader(encodeFile(t, f))); err == nil {
			t.Errorf("%s: Read accepted it", m.name)
		}
	}
}

// FuzzSnapshotRead feeds Read arbitrary bytes — it is reachable from
// POST /peer/replicas/{id} and `enzogo -restart`. Whatever arrives, Read
// returns (an error, for anything but a well-formed snapshot) without
// panicking and without allocating more than a small multiple of the
// input: a header claiming a 2^20-cubed grid must be refused, not
// provisioned.
func FuzzSnapshotRead(f *testing.F) {
	h, _ := buildHierarchy(f)
	good, err := Encode(h, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	for _, m := range malformations {
		file := validFile(f, good)
		m.damage(&file)
		f.Add(encodeFile(f, file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input's size is what it decompresses to (however far that
		// gets): decoding must not cost more than a small multiple of it.
		size := uint64(len(data))
		if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
			n, _ := io.Copy(io.Discard, zr)
			size += uint64(n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, _, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 32x: gob widens a one-byte float to eight, and the grid built
		// around the fields (potential, flux registers, copies) doubles
		// that; the fixed part is the decoders' own tables and buffers —
		// gob reads a message that claims to be large in 10 MiB chunks.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 16<<20+32*size; grew > limit {
			t.Fatalf("Read allocated %d bytes for an input of %d (limit %d)", grew, size, limit)
		}
		if err == nil && h.Root() == nil {
			t.Fatal("Read succeeded without a root grid")
		}
	})
}
