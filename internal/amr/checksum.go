package amr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Checksum returns a 64-bit FNV-1a digest of the hierarchy's complete
// evolving state: the root time, every grid's placement and geometry, the
// raw bits of every field (ghost zones included — boundary fills are
// deterministic), and the particle sets with their extended-precision
// positions. Two hierarchies that evolved through identical arithmetic
// hash identically, so the digest is the equality test behind the golden
// regression suite and the sim job cache: a changed bit anywhere in the
// solution changes the checksum.
//
// Every kernel is bitwise identical at any worker count, the CIC deposit
// included (it reduces fixed particle chunks in chunk order), so the
// digest does not depend on Cfg.Workers.
func (h *Hierarchy) Checksum() uint64 {
	d := fnv.New64a()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.Write(buf[:])
	}
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.Write(buf[:])
	}
	wf(h.Time)
	wi(int64(len(h.Levels)))
	for _, lv := range h.Levels {
		wi(int64(len(lv)))
		for _, g := range lv {
			wi(int64(g.Level))
			wi(int64(g.Lo[0]))
			wi(int64(g.Lo[1]))
			wi(int64(g.Lo[2]))
			wi(int64(g.Nx))
			wi(int64(g.Ny))
			wi(int64(g.Nz))
			for dim := 0; dim < 3; dim++ {
				wf(g.Edge[dim].Hi)
				wf(g.Edge[dim].Lo)
			}
			wf(g.Time)
			for _, f := range g.State.Fields() {
				for _, v := range f.Data {
					wf(v)
				}
			}
			if g.Parts != nil {
				wi(int64(g.Parts.Len()))
				for i := 0; i < g.Parts.Len(); i++ {
					wf(g.Parts.X[i].Hi)
					wf(g.Parts.X[i].Lo)
					wf(g.Parts.Y[i].Hi)
					wf(g.Parts.Y[i].Lo)
					wf(g.Parts.Z[i].Hi)
					wf(g.Parts.Z[i].Lo)
					wf(g.Parts.Vx[i])
					wf(g.Parts.Vy[i])
					wf(g.Parts.Vz[i])
					wf(g.Parts.Mass[i])
					wi(g.Parts.ID[i])
				}
			}
		}
	}
	return d.Sum64()
}

// ChecksumHex renders Checksum as the fixed-width hex string committed in
// golden files and returned by the sim job API.
func (h *Hierarchy) ChecksumHex() string {
	return fmt.Sprintf("%016x", h.Checksum())
}
