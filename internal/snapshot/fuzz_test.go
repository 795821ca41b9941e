package snapshot

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// split parses a valid stream into its header and its raw records, for
// tests to damage and lay out again.
func split(t testing.TB, data []byte) (*header, [][]byte) {
	t.Helper()
	hd, recs, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, len(recs))
	forRecords(1, len(recs), func(c *coder, i int) { // inline: t.Fatal is safe
		if err := c.inflate(recs[i], hd.Grids[i].size()); err != nil {
			t.Fatal(err)
		}
		raws[i] = bytes.Clone(c.raw)
	})
	return hd, raws
}

// frame deflates a raw record behind its CRC-32C, the way Encode does.
func frame(raw []byte) []byte {
	var b bytes.Buffer
	b.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(raw, castagnoli)))
	zw, _ := flate.NewWriter(&b, flate.BestSpeed)
	zw.Write(raw)
	zw.Close()
	return b.Bytes()
}

// rawOf inflates a framed record back to its raw bytes.
func rawOf(rec []byte) []byte {
	raw, _ := io.ReadAll(flate.NewReader(bytes.NewReader(rec[4:])))
	return raw
}

// join lays out a stream from a header and framed records with no checks —
// what a hostile or corrupted sender can put on the wire.
func join(t testing.TB, hd *header, recs [][]byte) []byte {
	t.Helper()
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(hd); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(magic), FormatVersion)
	for _, b := range append([][]byte{hb.Bytes()}, recs...) {
		out = append(binary.AppendUvarint(out, uint64(len(b))), b...)
	}
	return out
}

// levelTwo is a level-2 grid table entry under grid 1 of the test
// hierarchy, at lo, with an all-zero record of the right size.
func levelTwo(hd *header, lo [3]int) (gridHead, []byte) {
	g := gridHead{Level: 2, Parent: 1, Lo: lo, N: [3]int{2, 2, 2}, Fields: hd.Grids[1].Fields}
	return g, frame(make([]byte, g.size()))
}

// malformations damage the header, the records or the laid-out bytes of
// the test hierarchy's stream; every one must be an error from Read — not
// a panic, not an allocation sized by the lie. Grid 1 is the level-1 grid
// holding the particle.
var malformations = []struct {
	name   string
	damage func(hd *header, recs [][]byte) [][]byte
	bytes  func(data []byte) []byte
}{
	{"no grids", func(hd *header, _ [][]byte) [][]byte { hd.Grids = nil; return nil }, nil},
	{"root not first", func(hd *header, recs [][]byte) [][]byte {
		hd.Grids[0], hd.Grids[1], recs[0], recs[1] = hd.Grids[1], hd.Grids[0], recs[1], recs[0]
		return recs
	}, nil},
	{"two roots", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Level = 0; return recs }, nil},
	{"negative level", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Level = -1; return recs }, nil},
	{"level past MaxLevel", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Level = hd.Config.MaxLevel + 1; return recs }, nil},
	{"huge root", func(hd *header, recs [][]byte) [][]byte {
		hd.Config.RootN, hd.Grids[0].N = 1<<20, [3]int{1 << 20, 1 << 20, 1 << 20}
		return recs
	}, nil},
	{"root smaller than RootN", func(hd *header, recs [][]byte) [][]byte { hd.Grids[0].N[0] = 4; return recs }, nil},
	{"huge subgrid", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].N[0] = 1 << 40; return recs }, nil},
	{"zero extent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].N[1] = 0; return recs }, nil},
	{"negative extent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].N[2] = -8; return recs }, nil},
	{"outside the domain", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Lo[0] = 1 << 30; return recs }, nil},
	{"negative origin", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Lo[2] = -1; return recs }, nil},
	{"overflowing refinement", func(hd *header, recs [][]byte) [][]byte { hd.Config.Refine = 1 << 62; return recs }, nil},
	{"huge species count", func(hd *header, recs [][]byte) [][]byte { hd.Config.NSpecies = 1 << 40; return recs }, nil},
	{"negative species count", func(hd *header, recs [][]byte) [][]byte { hd.Config.NSpecies = -1; return recs }, nil},
	{"missing field", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Fields--; return recs }, nil},
	{"huge field count", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Fields = 1 << 50; return recs }, nil},
	{"negative particle count", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Particles = -1; return recs }, nil},
	{"huge particle count", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Particles = 1 << 45; return recs }, nil},
	{"invalid config", func(hd *header, recs [][]byte) [][]byte { hd.Config.RootN = 7; return recs }, nil},
	{"root with a parent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[0].Parent = 1; return recs }, nil},
	{"bad parent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Parent = 99; return recs }, nil},
	{"self parent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Parent = 1; return recs }, nil},
	{"same-level parent", func(hd *header, recs [][]byte) [][]byte {
		sib := hd.Grids[1]
		sib.Parent = 1
		hd.Grids = append(hd.Grids, sib)
		return append(recs, recs[1])
	}, nil},
	{"level-2 grid outside its parent", func(hd *header, recs [][]byte) [][]byte {
		hd.Config.MaxLevel = 2
		g, rec := levelTwo(hd, [3]int{0, 0, 0})
		hd.Grids = append(hd.Grids, g)
		return append(recs, rec)
	}, nil},
	// The grid table and the records disagree.
	{"declared size shorter than inflated", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Particles--; return recs }, nil},
	{"declared size longer than inflated", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].Particles++; return recs }, nil},
	{"record particle count ≠ grid table", func(hd *header, recs [][]byte) [][]byte {
		raw := rawOf(recs[1])
		at := 8 * hd.Grids[1].fieldWords()
		binary.LittleEndian.PutUint64(raw[at:], binary.LittleEndian.Uint64(raw[at:])+1)
		recs[1] = frame(raw)
		return recs
	}, nil},
	{"fields for another extent", func(hd *header, recs [][]byte) [][]byte { hd.Grids[1].N[0] -= 2; return recs }, nil},
	{"decompression bomb", func(_ *header, recs [][]byte) [][]byte { recs[1] = frame(make([]byte, 4<<20)); return recs }, nil},
	{"CRC mismatch", func(_ *header, recs [][]byte) [][]byte { recs[1][0] ^= 1; return recs }, nil},
	{"corrupt deflate stream", func(_ *header, recs [][]byte) [][]byte { recs[1][8] ^= 0xff; return recs }, nil},
	{"bytes after a deflate stream", func(_ *header, recs [][]byte) [][]byte { recs[1] = append(recs[1], 0); return recs }, nil},
	{"record shorter than its CRC", func(_ *header, recs [][]byte) [][]byte { recs[1] = recs[1][:3]; return recs }, nil},
	{"missing record", func(_ *header, recs [][]byte) [][]byte { return recs[:len(recs)-1] }, nil},
	// The framing lies about the input.
	{"truncated record", nil, func(data []byte) []byte { return data[:len(data)-7] }},
	{"header length past the input", nil, func(data []byte) []byte { return data[:len(magic)+8] }},
	{"trailing bytes", nil, func(data []byte) []byte { return append(data, 0) }},
	{"no version", nil, func(data []byte) []byte { return data[:len(magic)] }},
}

// damaged lays out the test hierarchy's stream with malformation i.
func damaged(t testing.TB, good []byte, i int) []byte {
	t.Helper()
	hd, raws := split(t, good)
	recs := make([][]byte, len(raws))
	for j, raw := range raws {
		recs[j] = frame(raw)
	}
	m := malformations[i]
	if m.damage != nil {
		recs = m.damage(hd, recs)
	}
	data := join(t, hd, recs)
	if m.bytes != nil {
		data = m.bytes(data)
	}
	return data
}

// TestReadRejectsMalformedRecords: every malformation is an error from
// Read, while the undamaged layout and a level-2 grid placed inside its
// parent read back.
func TestReadRejectsMalformedRecords(t *testing.T) {
	h, _ := buildHierarchy(t)
	good := encode(t, h, "fuzz")
	hd, raws := split(t, good)
	if len(hd.Grids) < 2 || hd.Grids[1].Level != 1 || hd.Grids[1].Particles == 0 {
		t.Fatal("the test hierarchy needs a level-1 grid 1 holding a particle for the cases below to bite")
	}
	recs := make([][]byte, len(raws))
	for j, raw := range raws {
		recs[j] = frame(raw)
	}
	if !bytes.Equal(join(t, hd, recs), good) {
		t.Fatal("split and join do not reproduce Encode's layout")
	}
	hd.Config.MaxLevel = 2
	g, rec := levelTwo(hd, [3]int{2 * hd.Grids[1].Lo[0], 2 * hd.Grids[1].Lo[1], 2 * hd.Grids[1].Lo[2]})
	hd.Grids = append(hd.Grids, g)
	if _, _, err := Read(bytes.NewReader(join(t, hd, append(recs, rec)))); err != nil {
		t.Fatalf("a level-2 grid inside its parent: %v", err)
	}
	for i, m := range malformations {
		if _, _, err := Read(bytes.NewReader(damaged(t, good, i))); err == nil {
			t.Errorf("%s: Read accepted it", m.name)
		}
	}
}

// FuzzSnapshotRead feeds Read arbitrary bytes — it is reachable from
// POST /peer/replicas/{id} and `enzogo -restart`. Whatever arrives, Read
// returns (an error, for anything but a well-formed snapshot) without
// panicking, and allocates no more than a fixed amount, a small multiple
// of the input and of the bytes it inflates, and a few hundred bytes per
// grid-table entry: a header claiming a 2^20-cubed grid must be refused,
// and a record that inflates without end must be cut off, not provisioned.
func FuzzSnapshotRead(f *testing.F) {
	h, _ := buildHierarchy(f)
	good := encode(f, h, "fuzz")
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(gzipGobStream(f))
	for i := range malformations {
		f.Add(damaged(f, good, i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// What Read can inflate: every record of a stream whose header
		// passes, each cut off one byte past its declared size.
		inflated, entries := 0, 0
		if hd, recs, err := parse(data); err == nil {
			entries = len(hd.Grids)
			for i, rec := range recs {
				n, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(rec[4:])), int64(hd.Grids[i].size())+1))
				inflated += int(n)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, _, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 32x: a grid carries its fields plus a potential, a dark-matter
		// density and flux registers, and the inflate scratch doubles as it
		// grows; the fixed part is the coders' deflate tables.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+32*(len(data)+inflated)+512*entries); grew > limit {
			t.Fatalf("Read allocated %d bytes for an input of %d inflating %d (limit %d)", grew, len(data), inflated, limit)
		}
		if err == nil && h.Root() == nil {
			t.Fatal("Read succeeded without a root grid")
		}
	})
}
