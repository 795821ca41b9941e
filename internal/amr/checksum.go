package amr

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/ep128"
)

// Checksum returns a 64-bit FNV-1a digest of the hierarchy's complete
// evolving state, as little-endian 64-bit words: the root time, the level
// count, and per level its grid count and per grid its geometry (level,
// Lo, extent, extended-precision edges, time) followed by the words of
// Grid.Record — every field bit, ghost zones included (boundary fills are
// deterministic), and the particle set with its extended-precision
// positions. A snapshot record is that same word stream, so the cache key
// and the restart cannot disagree about what a grid holds. Two
// hierarchies that evolved through identical arithmetic hash identically,
// so the digest is the equality test behind the golden regression suite
// and the sim job cache: a changed bit anywhere in the solution changes
// the checksum.
//
// Every kernel is bitwise identical at any worker count, the CIC deposit
// included (it reduces fixed particle chunks in chunk order), so the
// digest does not depend on Cfg.Workers.
func (h *Hierarchy) Checksum() uint64 {
	d := fnv64(14695981039346656037)
	words := d.words
	d.put(math.Float64bits(h.Time))
	d.put(uint64(len(h.Levels)))
	for _, lv := range h.Levels {
		d.put(uint64(len(lv)))
		for _, g := range lv {
			for _, v := range [...]int{g.Level, g.Lo[0], g.Lo[1], g.Lo[2], g.Nx, g.Ny, g.Nz} {
				d.put(uint64(v))
			}
			for _, v := range [...]float64{g.Edge[0].Hi, g.Edge[0].Lo, g.Edge[1].Hi, g.Edge[1].Lo, g.Edge[2].Hi, g.Edge[2].Lo, g.Time} {
				d.put(math.Float64bits(v))
			}
			g.Record(words)
		}
	}
	return uint64(d)
}

// fnv64 is a running 64-bit FNV-1a digest.
type fnv64 uint64

// put hashes w's little-endian bytes.
func (d *fnv64) put(w uint64) { d.words([]uint64{w}) }

// words hashes each word's little-endian bytes, as a Grid.Record visitor.
func (d *fnv64) words(ws []uint64) {
	s := *d
	for _, w := range ws {
		for range 8 {
			s = (s ^ fnv64(w&0xff)) * 1099511628211
			w >>= 8
		}
	}
	*d = s
}

// ChecksumHex renders Checksum as the fixed-width hex string committed in
// golden files and returned by the sim job API.
func (h *Hierarchy) ChecksumHex() string {
	return fmt.Sprintf("%016x", h.Checksum())
}

// Record passes words each run of 64-bit words of the grid's state, in
// the one order both Checksum and a snapshot record use: every field slab,
// ghost zones included, in hydro.State.Fields order, as one run viewing
// the slab in place; the particle count as a run of one; then one run per
// particle row — X, Y, Z as (Hi, Lo) pairs, Vx, Vy, Vz, Mass, ID — copied
// into a row buffer and written back to the particle after words
// returns. A word is its value's bits (float64 bits, int64 two's
// complement). words may store into a run, which is how a reader restores
// a grid: Record grows the particle set to the count words stores before
// it visits the rows, so a grid allocated with an empty set is filled in
// one pass. words must not keep a run past its return. A column added to
// hydro.State or nbody.Particles joins the state here, and so reaches the
// checksum and the checkpoint together.
func (g *Grid) Record(words func([]uint64)) {
	for _, f := range g.State.Fields() {
		words(unsafe.Slice(bits(unsafe.SliceData(f.Data)), len(f.Data)))
	}
	p := g.Parts
	buf := new([12]uint64) // the count, then one row's 11 words
	buf[0] = uint64(p.Len())
	words(buf[:1])
	for uint64(p.Len()) < buf[0] {
		p.Add(ep128.Dd{}, ep128.Dd{}, ep128.Dd{}, 0, 0, 0, 0, 0)
	}
	for i := range p.Len() {
		cols := [...]*uint64{bits(&p.X[i].Hi), bits(&p.X[i].Lo), bits(&p.Y[i].Hi), bits(&p.Y[i].Lo),
			bits(&p.Z[i].Hi), bits(&p.Z[i].Lo), bits(&p.Vx[i]), bits(&p.Vy[i]), bits(&p.Vz[i]), bits(&p.Mass[i]),
			(*uint64)(unsafe.Pointer(&p.ID[i]))}
		row := buf[:len(cols)]
		for k, c := range cols {
			row[k] = *c
		}
		words(row)
		for k, c := range cols {
			*c = row[k]
		}
	}
}

// bits views a float64 as its IEEE-754 word.
func bits(v *float64) *uint64 { return (*uint64)(unsafe.Pointer(v)) }
