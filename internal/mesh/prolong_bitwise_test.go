package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceProlongLinear is the per-cell ProlongLinear the row kernel
// replaced, kept verbatim as the oracle.
func referenceProlongLinear(parent, child *Field3, offI, offJ, offK, r, nb int) {
	rf := float64(r)
	for k := -nb; k < child.Nz+nb; k++ {
		fk := offK + k
		pk := FloorDiv(fk, r)
		// Fractional offset of the fine cell center from the coarse
		// cell center, in coarse cell widths: in (-1/2, 1/2).
		zk := (float64(fk-pk*r) + 0.5) / rf
		dzk := zk - 0.5
		for j := -nb; j < child.Ny+nb; j++ {
			fj := offJ + j
			pj := FloorDiv(fj, r)
			zj := (float64(fj-pj*r) + 0.5) / rf
			dzj := zj - 0.5
			for i := -nb; i < child.Nx+nb; i++ {
				fi := offI + i
				pi := FloorDiv(fi, r)
				zi := (float64(fi-pi*r) + 0.5) / rf
				dzi := zi - 0.5

				c := parent.At(pi, pj, pk)
				sx := minmod(parent.At(pi-1, pj, pk), c, parent.At(pi+1, pj, pk))
				sy := minmod(parent.At(pi, pj-1, pk), c, parent.At(pi, pj+1, pk))
				sz := minmod(parent.At(pi, pj, pk-1), c, parent.At(pi, pj, pk+1))
				child.Set(i, j, k, c+sx*dzi+sy*dzj+sz*dzk)
			}
		}
	}
}

// referenceCopyOverlap is the per-cell CopyOverlap the row copies replaced.
func referenceCopyOverlap(dst, src *Field3, di, dj, dk, nb int) {
	i0 := max(-nb, di)
	i1 := min(dst.Nx+nb, di+src.Nx)
	j0 := max(-nb, dj)
	j1 := min(dst.Ny+nb, dj+src.Ny)
	k0 := max(-nb, dk)
	k1 := min(dst.Nz+nb, dk+src.Nz)
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				dst.Set(i, j, k, src.At(i-di, j-dj, k-dk))
			}
		}
	}
}

// nastyValue draws from a mix that hits every limiter branch: ordinary
// values, exact ties, signed zeros, subnormals and magnitudes whose slope
// products overflow.
func nastyValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.Copysign(5e-324*float64(1+rng.Intn(100)), rng.Float64()-0.5)
	case 2:
		return math.Copysign(1e300*rng.Float64(), rng.Float64()-0.5)
	case 3:
		return float64(rng.Intn(3)) // ties between neighbours
	default:
		return rng.NormFloat64()
	}
}

func fillNasty(f *Field3, rng *rand.Rand) {
	for n := range f.Data {
		f.Data[n] = nastyValue(rng)
	}
}

func requireSameData(t *testing.T, what string, want, got *Field3) {
	t.Helper()
	for n, v := range want.Data {
		if math.Float64bits(v) != math.Float64bits(got.Data[n]) {
			t.Fatalf("%s: flat index %d: reference %v (%#x), got %v (%#x)",
				what, n, v, math.Float64bits(v), got.Data[n], math.Float64bits(got.Data[n]))
		}
	}
}

// TestProlongationMatchesPerCellReference pins the row kernel — whole-box
// Fill through ProlongLinear, and Fill over six ghost slabs — to the
// per-cell reference over random placements, refinement factors and halo
// depths, including children whose halo reaches into the parent's ghosts
// (negative fine indices).
func TestProlongationMatchesPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		r := []int{2, 4}[rng.Intn(2)]
		nb := []int{0, 2, 4}[rng.Intn(3)]
		const png = 4
		pn := [3]int{3 + rng.Intn(5), 3 + rng.Intn(5), 3 + rng.Intn(5)}
		parent := NewField3(pn[0], pn[1], pn[2], png)
		fillNasty(parent, rng)
		// Child footprint in parent cells, anywhere inside the parent's
		// active region: the touched parent cells then stay within
		// ceil(nb/r)+1 <= png ghosts.
		var cn, off [3]int
		for d := 0; d < 3; d++ {
			lo := rng.Intn(pn[d])
			cn[d] = r * (1 + rng.Intn(pn[d]-lo))
			off[d] = r * lo
		}
		what := fmt.Sprintf("trial %d: r=%d nb=%d parent %v child %v off %v", trial, r, nb, pn, cn, off)

		want := NewField3(cn[0], cn[1], cn[2], 4)
		fillNasty(want, rng)
		got := want.Clone()
		referenceProlongLinear(parent, want, off[0], off[1], off[2], r, nb)
		ProlongLinear(parent, got, off[0], off[1], off[2], r, nb)
		requireSameData(t, what+" (ProlongLinear)", want, got)

		// Ghosts only: the reference fills everything, then the active
		// region is put back.
		fillNasty(want, rng)
		got = want.Clone()
		active := want.Clone()
		referenceProlongLinear(parent, want, off[0], off[1], off[2], r, nb)
		referenceCopyOverlap(want, active, 0, 0, 0, 0)
		pl := NewProlongation(cn[0], cn[1], cn[2], off[0], off[1], off[2], r, nb)
		for _, b := range ghostSlabs(cn, nb) {
			pl.Fill(parent, got, b[0], b[1])
		}
		requireSameData(t, what+" (ghost slabs)", want, got)
	}
}

// TestFillMatchesParentRowKernel pins the row-grouped Fill (slopes once
// per parent row) to the parent commit's per-child-row Fill
// (export_test.go) on random boxes, the six ghost slabs and the whole
// halo-extended extent, with child offsets that are not multiples of r, so
// boxes start and end part-way through a parent cell on every axis.
func TestFillMatchesParentRowKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		r := []int{2, 4}[rng.Intn(2)]
		nb := []int{1, 2, 4}[rng.Intn(3)]
		const png = 4
		pn := [3]int{3 + rng.Intn(5), 3 + rng.Intn(5), 3 + rng.Intn(5)}
		parent := NewField3(pn[0], pn[1], pn[2], png)
		fillNasty(parent, rng)
		var cn, off [3]int
		for d := 0; d < 3; d++ {
			lo := rng.Intn(pn[d])
			off[d] = r*lo + rng.Intn(r)
			cn[d] = 1 + rng.Intn(r*(pn[d]-lo)-off[d]+r*lo)
		}
		pl := NewProlongation(cn[0], cn[1], cn[2], off[0], off[1], off[2], r, nb)
		boxes := [][2][3]int{{{-nb, -nb, -nb}, {cn[0] + nb, cn[1] + nb, cn[2] + nb}}}
		for b := 0; b < 4; b++ {
			var lo, hi [3]int
			for d := 0; d < 3; d++ {
				a, z := rng.Intn(cn[d]+2*nb+1)-nb, rng.Intn(cn[d]+2*nb+1)-nb
				lo[d], hi[d] = min(a, z), max(a, z)
			}
			boxes = append(boxes, [2][3]int{lo, hi})
		}
		want := NewField3(cn[0], cn[1], cn[2], 4)
		fillNasty(want, rng)
		got := want.Clone()
		for _, b := range boxes {
			referenceFill(pl, parent, want, b[0], b[1])
			pl.Fill(parent, got, b[0], b[1])
			requireSameData(t, fmt.Sprintf("trial %d: r=%d nb=%d child %v off %v box %v", trial, r, nb, cn, off, b), want, got)
		}
		// The six ghost slabs through the new kernel against the same
		// slabs through the old one.
		fillNasty(want, rng)
		got = want.Clone()
		for _, b := range ghostSlabs(cn, nb) {
			pl.Fill(parent, got, b[0], b[1])
			referenceFill(pl, parent, want, b[0], b[1])
		}
		requireSameData(t, fmt.Sprintf("trial %d: ghost slabs", trial), want, got)
	}
}

// ghostSlabs lists six boxes that tile the nb-deep halo of an n-cell
// child: the z pair spanning the full x–y extent, the y pair the full x
// extent.
func ghostSlabs(n [3]int, nb int) [][2][3]int {
	nx, ny, nz := n[0], n[1], n[2]
	return [][2][3]int{
		{{-nb, -nb, -nb}, {nx + nb, ny + nb, 0}},
		{{-nb, -nb, nz}, {nx + nb, ny + nb, nz + nb}},
		{{-nb, -nb, 0}, {nx + nb, 0, nz}},
		{{-nb, ny, 0}, {nx + nb, ny + nb, nz}},
		{{-nb, 0, 0}, {0, ny, nz}},
		{{nx, 0, 0}, {nx + nb, ny, nz}},
	}
}

// TestCopyOverlapMatchesPerCellReference covers partial overlaps on every
// side, including negative offsets (src starting inside dst's low ghosts
// or beyond them) and no overlap at all.
func TestCopyOverlapMatchesPerCellReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		dn := [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		sn := [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		nb := rng.Intn(4)
		want := NewField3(dn[0], dn[1], dn[2], 3)
		fillNasty(want, rng)
		got := want.Clone()
		src := NewField3(sn[0], sn[1], sn[2], rng.Intn(3))
		fillNasty(src, rng)
		var d [3]int
		for a := 0; a < 3; a++ {
			d[a] = rng.Intn(dn[a]+sn[a]+8) - sn[a] - 4
		}
		referenceCopyOverlap(want, src, d[0], d[1], d[2], nb)
		CopyOverlap(got, src, d[0], d[1], d[2], nb)
		requireSameData(t, fmt.Sprintf("trial %d: dst %v src %v at %v nb=%d", trial, dn, sn, d, nb), want, got)
	}
	// The named case: src pokes two cells into dst's low corner from a
	// negative offset; only that 2×2×2 corner of the halo may change.
	dst := NewField3(4, 4, 4, 2)
	dst.Fill(-1)
	src := NewField3(3, 3, 3, 0)
	for n := range src.Data {
		src.Data[n] = float64(n)
	}
	CopyOverlap(dst, src, -3, -3, -3, 2)
	changed := 0
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				if v := dst.At(i, j, k); v != -1 {
					changed++
					if i >= 0 || j >= 0 || k >= 0 || v != src.At(i+3, j+3, k+3) {
						t.Fatalf("cell (%d,%d,%d) = %v", i, j, k, v)
					}
				}
			}
		}
	}
	if changed != 8 {
		t.Fatalf("%d cells changed, want the 2x2x2 ghost corner", changed)
	}
}
