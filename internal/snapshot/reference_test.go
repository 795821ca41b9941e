package snapshot

// The checkpoint encoder before it stopped churning the heap — a fresh
// gzip.Writer per call, a copy of every field and particle slice — kept
// verbatim as the byte-for-byte reference for the pooled, aliasing one.

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/ep128"
)

func referenceWriteSized(w io.Writer, h *amr.Hierarchy, problem string) (rawBytes int64, err error) {
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
			f.Grids = append(f.Grids, referenceEncodeGrid(g))
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
	zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return 0, fmt.Errorf("snapshot: gzip: %w", err)
	}
	zw.Comment = gzipComment
	cw := &countWriter{w: zw}
	if err := gob.NewEncoder(cw).Encode(&f); err != nil {
		return 0, fmt.Errorf("snapshot: encode: %w", err)
	}
	return cw.n, zw.Close()
}

func referenceEncodeGrid(g *amr.Grid) GridRec {
	rec := GridRec{
		Level: g.Level, Lo: g.Lo, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		Time: g.Time,
	}
	for d := 0; d < 3; d++ {
		rec.EdgeHi[d] = g.Edge[d].Hi
		rec.EdgeLo[d] = g.Edge[d].Lo
	}
	for _, fld := range g.State.Fields() {
		data := make([]float64, len(fld.Data))
		copy(data, fld.Data)
		rec.Fields = append(rec.Fields, data)
	}
	p := g.Parts
	for i := 0; i < p.Len(); i++ {
		rec.PXHi = append(rec.PXHi, p.X[i].Hi)
		rec.PXLo = append(rec.PXLo, p.X[i].Lo)
		rec.PYHi = append(rec.PYHi, p.Y[i].Hi)
		rec.PYLo = append(rec.PYLo, p.Y[i].Lo)
		rec.PZHi = append(rec.PZHi, p.Z[i].Hi)
		rec.PZLo = append(rec.PZLo, p.Z[i].Lo)
	}
	rec.PVx = append(rec.PVx, p.Vx...)
	rec.PVy = append(rec.PVy, p.Vy...)
	rec.PVz = append(rec.PVz, p.Vz...)
	rec.PMass = append(rec.PMass, p.Mass...)
	rec.PID = append(rec.PID, p.ID...)
	return rec
}

// TestEncodeBytesMatchReference: a multi-level hierarchy with species and
// particles (on both levels, and grids with none) encodes to the
// reference's exact bytes — sequentially, so a recycled compressor is
// covered, and from 4 goroutines sharing the pool.
func TestEncodeBytesMatchReference(t *testing.T) {
	h, _ := buildHierarchy(t)
	fine := h.Levels[1][0]
	for i := 0; i < 5; i++ {
		x := ep128.FromFloat64(0.4 + 0.05*float64(i)).AddFloat(1e-20)
		fine.Parts.Add(x, ep128.FromFloat64(0.5), x, float64(i), -1, 0.5, 0.25, int64(100+i))
	}
	if h.Root().Parts.Len() == 0 {
		h.Root().Parts.Add(ep128.FromFloat64(0.1), ep128.FromFloat64(0.9), ep128.FromFloat64(0.1), 0, 0, 0, 1, 7)
	}
	var ref bytes.Buffer
	wantRaw, err := referenceWriteSized(&ref, h, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	check := func() error {
		got, raw, err := EncodeSized(h, "synthetic")
		if err != nil {
			return err
		}
		if raw != wantRaw || !bytes.Equal(got, ref.Bytes()) {
			return fmt.Errorf("encoded %d bytes (raw %d), reference %d (raw %d), equal=%v",
				len(got), raw, ref.Len(), wantRaw, bytes.Equal(got, ref.Bytes()))
		}
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := check(); err != nil {
			t.Fatalf("sequential encode %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8 && errs[w] == nil; i++ {
				errs[w] = check()
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
	// Write through a plain io.Writer takes the same path.
	var plain bytes.Buffer
	if err := Write(&plain, h, "synthetic"); err != nil || !bytes.Equal(plain.Bytes(), ref.Bytes()) {
		t.Fatalf("Write differs from the reference (err %v)", err)
	}
}
