// Package snapshot serializes the full grid hierarchy for checkpointing,
// restart and offline analysis — the workflow the paper depends on (the
// run was restarted with additional static levels after the low-resolution
// pass, and outputs in the 2-4 GB range fed the analysis tools of §6).
//
// Format 5 is the magic "repro snapshot\x00", a version byte, a
// uvarint-length-prefixed gob header — problem name, amr.Config (Workers
// stored as 0: a knob of the process, not state), root time, Strang parity
// and the grid table (per grid: level, Lo, extent, extended-precision
// edges, time, parent record, field and particle counts) — then one
// uvarint-length-prefixed record per grid in hierarchy order: the CRC-32C
// of the grid's raw record (4 bytes, little-endian) and the raw record
// deflated on its own at BestSpeed. A raw record is the words of
// amr.Grid.Record, little-endian — the stream Checksum hashes after the
// grid's geometry: the field slabs, ghost zones included, the particle
// count, then the particle rows. Record hands over runs of words — a
// field slab in place, the count, a particle row — which the encoder
// writes and the decoder fills in one tight loop per run. Records are
// deflated in parallel but concatenated in order, so the bytes do not
// depend on the worker count; edges and positions are exact, so a
// restart reproduces the run bit for bit, and needs no caller-supplied
// config (the restart-with-more-levels workflow mutates the loaded Cfg
// after Read).
//
// Integrity: streams arrive from replica PUTs and the command line, so
// before inflating a byte Read checks the config, every grid against its
// level's domain, the parent links as a level tree with each child inside
// its parent's refined box, and every record length against the input.
// Each record inflates into scratch that grows only with the bytes it
// produces, never past its declared size plus one; the exact size, the
// CRC and the record's particle count are checked against the grid table
// before the grid is allocated. Read thus allocates at most a fixed
// amount, a small multiple of the input and of the bytes it inflated, and
// a few hundred bytes per grid-table entry.
package snapshot

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"slices"

	"repro/internal/amr"
	"repro/internal/ep128"
	"repro/internal/hydro"
	"repro/internal/nbody"
	"repro/internal/par"
)

// FormatVersion is the version byte after the magic. Versions 2 and 3 were
// one gob message behind gzip; version 4 listed a grid's columns apart from
// Checksum and gob'd the config flat. Read refuses all three by name.
const FormatVersion = 5

const (
	magic          = "repro snapshot\x00"
	baseFields     = 6       // hydro.State's fields before the species
	maxRecordWords = 1 << 40 // so no record size computation overflows
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rowWords is the words amr.Grid.Record spends per particle, counted once
// off a one-cell grid holding one particle.
var rowWords = func() int {
	g := amr.NewGrid(0, [3]int{}, 1, 1, 1, 4, 2, 0)
	g.Parts.Add(ep128.Dd{}, ep128.Dd{}, ep128.Dd{}, 0, 0, 0, 0, 0)
	n := 0
	g.Record(func(ws []uint64) { n += len(ws) })
	return n - len(g.State.Fields())*len(g.State.Rho.Data) - 1
}()

type header struct {
	Problem string
	Config  amr.Config
	Time    float64
	Parity  int
	Grids   []gridHead
}

// gridHead is one grid's entry in the header's grid table.
type gridHead struct {
	Level, Parent     int // Parent is a record index, -1 for the root
	Lo, N             [3]int
	Edge              [3]ep128.Dd
	Time              float64
	Fields, Particles int
}

// fieldWords returns the words of the grid's field slabs, which precede
// the particle count in its raw record.
func (g *gridHead) fieldWords() int {
	p := 2 * hydro.NGhost
	return g.Fields * (g.N[0] + p) * (g.N[1] + p) * (g.N[2] + p)
}

// size returns the byte count of the grid's raw record.
func (g *gridHead) size() int { return 8 * (g.fieldWords() + 1 + rowWords*g.Particles) }

// Encode serializes the hierarchy to an in-memory snapshot: the sim job
// service's "snapshot" product and checkpoints, replica PUTs, Save.
func Encode(h *amr.Hierarchy, problem string) ([]byte, error) {
	data, _, err := EncodeSized(h, problem)
	return data, err
}

// EncodeSized is Encode, additionally reporting the raw record bytes for
// the sim artifact index. Records are deflated on h.Cfg.Workers workers.
func EncodeSized(h *amr.Hierarchy, problem string) ([]byte, int64, error) {
	hd := header{Problem: problem, Config: h.Cfg, Time: h.Time, Parity: h.Parity()}
	hd.Config.Workers = 0
	var grids []*amr.Grid
	index := map[*amr.Grid]int{nil: -1} // the root's parent
	var raw int64
	for _, lv := range h.Levels {
		for _, g := range lv {
			gh := gridHead{Level: g.Level, Lo: g.Lo, N: [3]int{g.Nx, g.Ny, g.Nz}, Edge: g.Edge,
				Time: g.Time, Parent: index[g.Parent], Fields: len(g.State.Fields()), Particles: g.Parts.Len()}
			index[g] = len(grids)
			grids = append(grids, g)
			hd.Grids = append(hd.Grids, gh)
			raw += int64(gh.size())
		}
	}
	recs := make([][]byte, len(grids))
	forRecords(h.Cfg.Workers, len(grids), func(c *coder, i int) { recs[i] = c.deflate(grids[i], hd.Grids[i].size()) })
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&hd); err != nil {
		return nil, 0, fmt.Errorf("snapshot: encode header: %w", err)
	}
	recs = append([][]byte{hb.Bytes()}, recs...)
	size := len(magic) + 1
	for _, rec := range recs {
		size += binary.MaxVarintLen64 + len(rec)
	}
	out := append(append(make([]byte, 0, size), magic...), FormatVersion)
	for _, rec := range recs {
		out = append(binary.AppendUvarint(out, uint64(len(rec))), rec...)
	}
	return out, raw, nil
}

// Read restores a hierarchy written by Encode or Save, with the registry
// problem name of the run. Its config owns a fresh cosmology.Background.
// Records are inflated on runtime.NumCPU() workers, at most one per grid.
func Read(r io.Reader) (*amr.Hierarchy, string, error) {
	var in bytes.Buffer
	if _, err := io.Copy(&in, r); err != nil {
		return nil, "", fmt.Errorf("snapshot: read: %w", err)
	}
	hd, recs, err := parse(in.Bytes())
	if err != nil {
		return nil, "", err
	}
	cfg := hd.Config
	var h *amr.Hierarchy
	grids := make([]*amr.Grid, len(recs))
	errs := make([]error, len(recs))
	forRecords(0, len(recs), func(c *coder, i int) {
		gh := &hd.Grids[i]
		err := c.inflate(recs[i], gh.size())
		if err == nil && binary.LittleEndian.Uint64(c.raw[8*gh.fieldWords():]) != uint64(gh.Particles) {
			err = errors.New("the record's particle count differs from the grid table's")
		}
		if err != nil {
			errs[i] = fmt.Errorf("snapshot: grid %d: %w", i, err)
			return
		}
		if i == 0 {
			h, _ = amr.NewHierarchy(cfg) // validated
			grids[i] = h.Root()
		} else {
			grids[i] = amr.NewGrid(gh.Level, gh.Lo, gh.N[0], gh.N[1], gh.N[2], cfg.RootN, cfg.Refine, cfg.NSpecies)
		}
		g, raw := grids[i], c.raw
		g.Time, g.Edge, g.Parts = gh.Time, gh.Edge, nbody.New(gh.Particles)
		g.Record(func(ws []uint64) {
			for i := range ws {
				ws[i] = binary.LittleEndian.Uint64(raw[8*i:])
			}
			raw = raw[8*len(ws):]
		})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, "", err
	}
	h.Time = hd.Time
	h.SetParity(hd.Parity)
	for i := 1; i < len(grids); i++ {
		g, p := grids[i], grids[hd.Grids[i].Parent]
		g.Parent = p
		p.Children = append(p.Children, g)
		for len(h.Levels) <= g.Level {
			h.Levels = append(h.Levels, nil)
		}
		h.Levels[g.Level] = append(h.Levels[g.Level], g)
	}
	return h, hd.Problem, nil
}

// parse decodes and validates the header and splits the records off the
// rest of the stream, each inside the input and nothing after the last.
func parse(data []byte) (*header, [][]byte, error) {
	if !bytes.HasPrefix(data, append([]byte(magic), FormatVersion)) {
		switch {
		case bytes.HasPrefix(data, []byte{0x1f, 0x8b}):
			return nil, nil, errors.New("snapshot: a gzip+gob stream (format 2 or 3) is not readable; this build reads format 5 only")
		case bytes.HasPrefix(data, []byte(magic+"\x04")):
			return nil, nil, errors.New("snapshot: a format-4 stream is not readable; this build reads format 5 only")
		}
		return nil, nil, errors.New("snapshot: not a format-5 snapshot stream")
	}
	hb, data, err := chunk(data[len(magic)+1:])
	var hd header
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(hb)).Decode(&hd)
	}
	if err == nil {
		err = hd.validate()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: header: %w", err)
	}
	recs := make([][]byte, len(hd.Grids))
	for i := range recs {
		if recs[i], data, err = chunk(data); err == nil && len(recs[i]) < 4 {
			err = errors.New("record shorter than its CRC")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: grid %d: %w", i, err)
		}
	}
	if len(data) != 0 {
		return nil, nil, fmt.Errorf("snapshot: %d bytes after the last record", len(data))
	}
	return &hd, recs, nil
}

// chunk splits a uvarint-length-prefixed chunk off data.
func chunk(data []byte) (body, rest []byte, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, nil, errors.New("length runs past the input")
	}
	return data[k : k+int(n)], data[k+int(n):], nil
}

// validate checks everything Read sizes an allocation by or indexes with:
// the config, each grid's level, extent and counts against it, and the
// parent links as a level tree with each child inside its parent.
func (hd *header) validate() error {
	cfg := hd.Config
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(hd.Grids) == 0 || hd.Grids[0].Level != 0 || hd.Grids[0].Parent != -1 {
		return errors.New("the first grid record is not the root")
	}
	for i := range hd.Grids {
		g := &hd.Grids[i]
		domain, ok := cfg.RootN, (g.Level == 0) == (i == 0) && g.Level >= 0 && g.Level <= cfg.MaxLevel &&
			cfg.NSpecies >= 0 && cfg.NSpecies < maxRecordWords
		for l := 0; ok && l < g.Level; l++ {
			ok, domain = domain <= math.MaxInt/cfg.Refine, domain*cfg.Refine
		}
		words := float64(g.Fields)
		for d, n := range g.N {
			ok = ok && n > 0 && g.Lo[d] >= 0 && n <= domain && g.Lo[d] <= domain-n && (i > 0 || n == domain)
			words *= float64(n + 2*hydro.NGhost)
		}
		if !ok || g.Fields != baseFields+cfg.NSpecies || g.Particles < 0 || words+1+float64(rowWords)*float64(g.Particles) > maxRecordWords {
			return fmt.Errorf("grid %d (level %d, extent %v at %v, %d fields, %d particles) does not fit the config",
				i, g.Level, g.N, g.Lo, g.Fields, g.Particles)
		}
		ok = i == 0 || g.Parent >= 0 && g.Parent < i && hd.Grids[g.Parent].Level == g.Level-1
		for d := 0; ok && i > 0 && d < 3; d++ {
			p := &hd.Grids[g.Parent]
			ok = g.Lo[d] >= p.Lo[d]*cfg.Refine && g.Lo[d]+g.N[d] <= (p.Lo[d]+p.N[d])*cfg.Refine
		}
		if !ok {
			return fmt.Errorf("grid %d: parent %d is not an earlier grid one level up whose refined box holds it", i, g.Parent)
		}
	}
	return nil
}

// coder is one worker's deflate writer (about 1 MB of tables) and reader,
// and the scratch records pass through.
type coder struct {
	zw  *flate.Writer
	zr  io.ReadCloser
	raw []byte
	out bytes.Buffer
}

// coders is a free list of deflate state; unlike a sync.Pool it survives
// garbage collection, which dropped the compressor between a job's
// checkpoints. It holds one coder per CPU, the most a Read uses; scratch
// lives for one call only.
var coders = make(chan *coder, runtime.NumCPU())

// forRecords runs fn for records 0..n-1 on up to workers workers, each
// worker with one coder from the free list for the whole call.
func forRecords(workers, n int, fn func(c *coder, i int)) {
	cs := make([]*coder, par.Workers(workers))
	par.For(workers, n, 1, func(w, lo, hi int) {
		if cs[w] == nil {
			select {
			case cs[w] = <-coders:
			default:
				cs[w] = &coder{zr: flate.NewReader(nil)}
				cs[w].zw, _ = flate.NewWriter(nil, flate.BestSpeed) // the level is valid
			}
		}
		for i := lo; i < hi; i++ {
			fn(cs[w], i)
		}
	})
	for _, c := range cs {
		if c != nil {
			c.raw, c.out = nil, bytes.Buffer{}
			c.zr.(flate.Resetter).Reset(bytes.NewReader(nil), nil) // let go of the input
			select {
			case coders <- c:
			default:
			}
		}
	}
}

// deflate returns g's record: the CRC-32C of its raw record of size bytes,
// then the raw record deflated.
func (c *coder) deflate(g *amr.Grid, size int) []byte {
	c.raw = slices.Grow(c.raw[:0], size)
	g.Record(func(ws []uint64) {
		n := len(c.raw)
		c.raw = slices.Grow(c.raw, 8*len(ws))[:n+8*len(ws)]
		for i, w := range ws {
			binary.LittleEndian.PutUint64(c.raw[n+8*i:], w)
		}
	})
	c.out.Reset()
	c.out.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(c.raw, castagnoli)))
	c.zw.Reset(&c.out)
	c.zw.Write(c.raw) // a bytes.Buffer sink cannot fail
	c.zw.Close()
	return bytes.Clone(c.out.Bytes())
}

// inflate decompresses a record into c.raw, which grows only with the bytes
// produced, never past want+1, and checks the exact size and the CRC.
func (c *coder) inflate(rec []byte, want int) error {
	src := bytes.NewReader(rec[4:])
	c.zr.(flate.Resetter).Reset(src, nil)
	buf := bytes.NewBuffer(c.raw[:0])
	_, err := buf.ReadFrom(&io.LimitedReader{R: c.zr, N: int64(want) + 1})
	c.raw = buf.Bytes()
	switch {
	case err != nil:
		return fmt.Errorf("inflate: %w", err)
	case len(c.raw) > want:
		return fmt.Errorf("record inflates past the %d bytes the grid table declares", want)
	case len(c.raw) < want:
		return fmt.Errorf("record inflates to %d bytes, the grid table declares %d", len(c.raw), want)
	case src.Len() != 0:
		return fmt.Errorf("%d bytes after the record's deflate stream", src.Len())
	case crc32.Checksum(c.raw, castagnoli) != binary.LittleEndian.Uint32(rec):
		return errors.New("record CRC mismatch")
	}
	return nil
}

// Save writes a snapshot to path; problem is the registry name of the
// run's problem (may be "").
func Save(path string, h *amr.Hierarchy, problem string) error {
	data, err := Encode(h, problem)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
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
