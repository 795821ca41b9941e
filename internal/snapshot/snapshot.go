// Package snapshot serializes the full grid hierarchy for checkpointing,
// restart and offline analysis — the workflow the paper depends on (the
// run was restarted with additional static levels after the low-resolution
// pass, and outputs in the 2-4 GB range fed the analysis tools of §6).
//
// The format is gob-encoded: self-describing, stdlib-only, and stable
// within a build. Extended-precision edges are stored exactly (both
// components), so a restart reproduces grid geometry bit-for-bit.
//
// The header embeds the registry problem name and the full amr.Config of
// the run (including the cosmological background state), so Read rebuilds
// the hierarchy without any caller-supplied configuration — a restart
// cannot be fed a mismatched config. The paper's restart-with-more-levels
// workflow mutates the loaded hierarchy's Cfg (MaxLevel, StaticLevels,
// Workers, ...) after Read; the grid geometry and field layout are fixed
// by the file.
package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/amr"
	"repro/internal/ep128"
	"repro/internal/hydro"
)

// FormatVersion guards against decoding incompatible snapshots. Version 2
// added the self-describing header (problem name + serialized config).
// Version 3 formalizes the compression contract for the durable job
// store's checkpoint cadence: the gob payload is gzip-compressed at
// BestSpeed (checkpoints sit on the evolution hot path, where encode
// stall matters more than a few percent of disk), the gzip header
// carries a format tag, and writers report the uncompressed payload size
// (WriteSized/EncodeSized) so artifact indexes can account for
// compression. Read remains transparent across versions: a version-2
// stream (default-compression gzip, untagged header) decodes exactly as
// before.
const FormatVersion = 3

// gzipComment tags the gzip header of version-3 streams, so a snapshot
// is identifiable without decompressing the gob payload. Version-2
// streams carry no tag; Read accepts both.
const gzipComment = "repro snapshot format 3"

// File is the serialized run state.
type File struct {
	Version int
	// Problem is the registry name of the problem the run was built
	// from ("" when unknown).
	Problem string
	// Config is the complete run configuration, including the
	// cosmological background at its saved state.
	Config amr.Config
	Time   float64
	Parity int // Strang sweep parity
	Grids  []GridRec
}

// GridRec is one serialized grid.
type GridRec struct {
	Level      int
	Lo         [3]int
	Nx, Ny, Nz int
	EdgeHi     [3]float64
	EdgeLo     [3]float64
	Time       float64
	ParentIdx  int // index into Grids, -1 for the root
	Fields     [][]float64
	// Particles.
	PXHi, PXLo []float64
	PYHi, PYLo []float64
	PZHi, PZLo []float64
	PVx, PVy   []float64
	PVz, PMass []float64
	PID        []int64
}

// Write serializes the hierarchy to w (gzip + gob). problem is the
// registry name of the run's problem (may be ""); it is embedded in the
// header so a restart is self-describing.
func Write(w io.Writer, h *amr.Hierarchy, problem string) error {
	_, err := WriteSized(w, h, problem)
	return err
}

// countWriter counts the bytes passed through it — the uncompressed gob
// payload size WriteSized reports.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteSized is Write, additionally reporting the uncompressed gob
// payload size — the compression accounting the sim artifact index
// exposes alongside each snapshot/checkpoint product's on-wire size.
func WriteSized(w io.Writer, h *amr.Hierarchy, problem string) (rawBytes int64, err error) {
	f := File{
		Version: FormatVersion,
		Problem: problem,
		Config:  h.Cfg,
		Time:    h.Time,
	}
	f.Parity = h.Parity()
	index := map[*amr.Grid]int{}
	for _, lv := range h.Levels {
		for _, g := range lv {
			index[g] = len(f.Grids)
			f.Grids = append(f.Grids, encodeGrid(g))
		}
	}
	for gi := range f.Grids {
		f.Grids[gi].ParentIdx = -1
	}
	gi := 0
	for _, lv := range h.Levels {
		for _, g := range lv {
			if g.Parent != nil {
				f.Grids[gi].ParentIdx = index[g.Parent]
			}
			gi++
		}
	}
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(w)
	zw.Comment = gzipComment // Reset clears the header
	cw := &countWriter{w: zw}
	if err := gob.NewEncoder(cw).Encode(&f); err != nil {
		return 0, fmt.Errorf("snapshot: encode: %w", err)
	}
	return cw.n, zw.Close()
}

// gzipWriters recycles the BestSpeed compressors (≈1.2 MB of tables each)
// across the checkpoints of the sim scheduler's slot goroutines.
var gzipWriters = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // the level is valid
	return zw
}}

// encodeGrid builds the record of one grid. Field data and the particle
// velocity/mass/id slices are aliased, not copied: the record only lives
// for the duration of one encode, and the hierarchy is not stepped while
// it is being encoded.
func encodeGrid(g *amr.Grid) GridRec {
	rec := GridRec{
		Level: g.Level, Lo: g.Lo, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		Time: g.Time,
	}
	for d := 0; d < 3; d++ {
		rec.EdgeHi[d] = g.Edge[d].Hi
		rec.EdgeLo[d] = g.Edge[d].Lo
	}
	fields := g.State.Fields()
	rec.Fields = make([][]float64, len(fields))
	for fi, fld := range fields {
		rec.Fields[fi] = fld.Data
	}
	p := g.Parts
	n := p.Len()
	split := make([]float64, 6*n) // extended-precision positions, Hi and Lo apart
	rec.PXHi, rec.PXLo = split[:n], split[n:2*n]
	rec.PYHi, rec.PYLo = split[2*n:3*n], split[3*n:4*n]
	rec.PZHi, rec.PZLo = split[4*n:5*n], split[5*n:]
	for i := 0; i < n; i++ {
		rec.PXHi[i], rec.PXLo[i] = p.X[i].Hi, p.X[i].Lo
		rec.PYHi[i], rec.PYLo[i] = p.Y[i].Hi, p.Y[i].Lo
		rec.PZHi[i], rec.PZLo[i] = p.Z[i].Hi, p.Z[i].Lo
	}
	rec.PVx, rec.PVy, rec.PVz, rec.PMass, rec.PID = p.Vx, p.Vy, p.Vz, p.Mass, p.ID
	return rec
}

// Read restores a hierarchy previously written by Write, rebuilding it
// from the config embedded in the header, and returns it together with
// the registry problem name of the run. The decoded config owns a fresh
// cosmology.Background, so a restarted run never shares expansion-factor
// state with the hierarchy that wrote the snapshot.
func Read(r io.Reader) (*amr.Hierarchy, string, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, "", fmt.Errorf("snapshot: gzip: %w", err)
	}
	var f File
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		return nil, "", fmt.Errorf("snapshot: decode: %w", err)
	}
	// Old versions read transparently: the version-2 layout is identical
	// modulo the compression level and the gzip header tag, both of which
	// the decompressor absorbs.
	if f.Version != FormatVersion && f.Version != 2 {
		return nil, "", fmt.Errorf("snapshot: version %d unsupported (this build reads 2..%d)", f.Version, FormatVersion)
	}
	// The stream may come from anywhere (a peer's replica PUT, a file
	// named on the command line): nothing is allocated or indexed from
	// its numbers until they are checked against the data it carries.
	if err := f.validate(); err != nil {
		return nil, "", err
	}
	cfg := f.Config
	h, err := amr.NewHierarchy(cfg)
	if err != nil {
		return nil, "", err
	}
	h.Time = f.Time
	h.SetParity(f.Parity)
	grids := make([]*amr.Grid, len(f.Grids))
	for i, rec := range f.Grids {
		var g *amr.Grid
		if rec.Level == 0 {
			g = h.Root()
		} else {
			g = amr.NewGrid(rec.Level, rec.Lo, rec.Nx, rec.Ny, rec.Nz,
				cfg.RootN, cfg.Refine, cfg.NSpecies)
		}
		g.Time = rec.Time
		for d := 0; d < 3; d++ {
			g.Edge[d] = ep128.Dd{Hi: rec.EdgeHi[d], Lo: rec.EdgeLo[d]}
		}
		if err := decodeFields(g, rec); err != nil {
			return nil, "", err
		}
		for pi := range rec.PMass {
			g.Parts.Add(
				ep128.Dd{Hi: rec.PXHi[pi], Lo: rec.PXLo[pi]},
				ep128.Dd{Hi: rec.PYHi[pi], Lo: rec.PYLo[pi]},
				ep128.Dd{Hi: rec.PZHi[pi], Lo: rec.PZLo[pi]},
				rec.PVx[pi], rec.PVy[pi], rec.PVz[pi], rec.PMass[pi], rec.PID[pi])
		}
		grids[i] = g
	}
	// Rebuild the tree and level lists.
	for i, rec := range f.Grids {
		if rec.Level == 0 {
			continue
		}
		if rec.ParentIdx < 0 || rec.ParentIdx >= len(grids) {
			return nil, "", fmt.Errorf("snapshot: grid %d has bad parent %d", i, rec.ParentIdx)
		}
		p := grids[rec.ParentIdx]
		grids[i].Parent = p
		p.Children = append(p.Children, grids[i])
		for len(h.Levels) <= rec.Level {
			h.Levels = append(h.Levels, nil)
		}
		h.Levels[rec.Level] = append(h.Levels[rec.Level], grids[i])
	}
	return h, f.Problem, nil
}

// validate checks the decoded file's shape — everything Read sizes an
// allocation by or indexes with — against the field and particle data
// the stream actually delivered, so a grid can never be allocated larger
// than the payload that fills it: a valid config, the root record first
// and spanning the root domain, every other record on a level in
// [1, MaxLevel] with positive extents inside that level's domain, field
// slices exactly the extents' size (ghost zones included), and parallel
// particle slices of one length.
func (f *File) validate() error {
	cfg := f.Config
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if len(f.Grids) == 0 || f.Grids[0].Level != 0 {
		return fmt.Errorf("snapshot: the first grid record is not the root")
	}
	nFields := len(f.Grids[0].Fields)
	if cfg.NSpecies < 0 || cfg.NSpecies >= nFields {
		return fmt.Errorf("snapshot: config has %d species, grids carry %d fields", cfg.NSpecies, nFields)
	}
	for i := range f.Grids {
		rec := &f.Grids[i]
		if (rec.Level == 0) != (i == 0) || rec.Level < 0 || rec.Level > cfg.MaxLevel {
			return fmt.Errorf("snapshot: grid %d on level %d (max level %d)", i, rec.Level, cfg.MaxLevel)
		}
		domain := cfg.RootN // the level's extent in cells, per dimension
		for l := 0; l < rec.Level; l++ {
			if domain > math.MaxInt/cfg.Refine {
				return fmt.Errorf("snapshot: grid %d: level %d domain overflows", i, rec.Level)
			}
			domain *= cfg.Refine
		}
		if len(rec.Fields) != nFields {
			return fmt.Errorf("snapshot: grid %d carries %d fields, the root %d", i, len(rec.Fields), nFields)
		}
		// The field length is divided down by each padded extent and must
		// come out at 1; the product itself could overflow on hostile input.
		n := [3]int{rec.Nx, rec.Ny, rec.Nz}
		cells := len(rec.Fields[0])
		for d := 0; d < 3; d++ {
			if n[d] <= 0 || rec.Lo[d] < 0 || n[d] > domain || rec.Lo[d] > domain-n[d] || (i == 0 && n[d] != domain) {
				return fmt.Errorf("snapshot: grid %d: extent %v at %v does not fit its level's %d^3 domain", i, n, rec.Lo, domain)
			}
			padded := n[d] + 2*hydro.NGhost
			if cells%padded != 0 {
				cells = 0
			}
			cells /= padded
		}
		if cells != 1 {
			return fmt.Errorf("snapshot: grid %d: %d values per field do not fill extent %v", i, len(rec.Fields[0]), n)
		}
		for _, fld := range rec.Fields {
			if len(fld) != len(rec.Fields[0]) {
				return fmt.Errorf("snapshot: grid %d: fields of unequal size", i)
			}
		}
		np := len(rec.PMass)
		for _, l := range []int{len(rec.PXHi), len(rec.PXLo), len(rec.PYHi), len(rec.PYLo), len(rec.PZHi), len(rec.PZLo),
			len(rec.PVx), len(rec.PVy), len(rec.PVz), len(rec.PID)} {
			if l != np {
				return fmt.Errorf("snapshot: grid %d: particle arrays of unequal length", i)
			}
		}
	}
	return nil
}

func decodeFields(g *amr.Grid, rec GridRec) error {
	fields := g.State.Fields()
	if len(rec.Fields) != len(fields) {
		return fmt.Errorf("snapshot: grid has %d fields, config expects %d (species mismatch)",
			len(rec.Fields), len(fields))
	}
	for fi, fld := range fields {
		if len(rec.Fields[fi]) != len(fld.Data) {
			return fmt.Errorf("snapshot: field %d size %d != %d", fi, len(rec.Fields[fi]), len(fld.Data))
		}
		copy(fld.Data, rec.Fields[fi])
	}
	return nil
}

// Encode serializes the hierarchy to an in-memory snapshot in the Write
// format — the payload of the sim job service's "snapshot" data product
// and its durability checkpoints, and any other sink that is not a file.
func Encode(h *amr.Hierarchy, problem string) ([]byte, error) {
	data, _, err := EncodeSized(h, problem)
	return data, err
}

// EncodeSized is Encode, additionally reporting the uncompressed gob
// payload size (see WriteSized).
func EncodeSized(h *amr.Hierarchy, problem string) ([]byte, int64, error) {
	var buf bytes.Buffer
	buf.Grow(int(lastEncodedSize.Load())) // one allocation instead of a doubling chain
	raw, err := WriteSized(&buf, h, problem)
	if err != nil {
		return nil, 0, err
	}
	lastEncodedSize.Store(int64(buf.Len()))
	return buf.Bytes(), raw, nil
}

// lastEncodedSize, the previous EncodeSized's output size, hints the next.
var lastEncodedSize atomic.Int64

// Save writes a snapshot to path; problem is the registry name of the
// run's problem (may be "").
func Save(path string, h *amr.Hierarchy, problem string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, h, problem)
}

// Load reads a snapshot from path, returning the restored hierarchy and
// the registry problem name embedded in it.
func Load(path string) (*amr.Hierarchy, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return Read(f)
}
