package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	f := NewField3(4, 5, 6, 2)
	seen := map[int]bool{}
	for k := -2; k < 8; k++ {
		for j := -2; j < 7; j++ {
			for i := -2; i < 6; i++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data) {
					t.Fatalf("index out of range at (%d,%d,%d): %d", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate flat index at (%d,%d,%d)", i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != len(f.Data) {
		t.Fatalf("index map not a bijection: %d vs %d", len(seen), len(f.Data))
	}
}

func TestSetAtAdd(t *testing.T) {
	f := NewField3(3, 3, 3, 1)
	f.Set(1, 2, 0, 5)
	if f.At(1, 2, 0) != 5 {
		t.Fatal("Set/At broken")
	}
	f.Add(1, 2, 0, 2)
	if f.At(1, 2, 0) != 7 {
		t.Fatal("Add broken")
	}
}

func TestSumActiveIgnoresGhosts(t *testing.T) {
	f := NewField3(2, 2, 2, 1)
	f.Fill(100) // ghosts too
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				f.Set(i, j, k, 1)
			}
		}
	}
	if s := f.SumActive(); s != 8 {
		t.Fatalf("SumActive = %v, want 8", s)
	}
}

func TestPeriodicBC(t *testing.T) {
	f := NewField3(4, 4, 4, 2)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, k, float64(i+10*j+100*k))
			}
		}
	}
	f.ApplyPeriodicBC()
	if f.At(-1, 0, 0) != f.At(3, 0, 0) {
		t.Error("periodic x- ghost wrong")
	}
	if f.At(4, 2, 1) != f.At(0, 2, 1) {
		t.Error("periodic x+ ghost wrong")
	}
	if f.At(-2, -1, 5) != f.At(2, 3, 1) {
		t.Error("periodic corner ghost wrong")
	}
}

func TestOutflowBC(t *testing.T) {
	f := NewField3(4, 4, 4, 2)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.Set(i, j, k, float64(i+10*j+100*k))
			}
		}
	}
	f.ApplyOutflowBC()
	if f.At(-1, 1, 1) != f.At(0, 1, 1) {
		t.Error("outflow x- ghost wrong")
	}
	if f.At(5, 1, 1) != f.At(3, 1, 1) {
		t.Error("outflow x+ ghost wrong")
	}
}

func TestRestrictConservation(t *testing.T) {
	// Restriction of a refined patch must preserve the mean exactly.
	r := 2
	child := NewField3(4, 4, 4, 1)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				child.Set(i, j, k, rng.Float64())
			}
		}
	}
	parent := NewField3(4, 4, 4, 1)
	Restrict(parent, child, 2, 2, 2, r)
	// Coarse cells (1..2)^3 now hold averages; total fine sum/r^3 must
	// equal coarse sum over the covered region.
	var coarse float64
	for k := 1; k <= 2; k++ {
		for j := 1; j <= 2; j++ {
			for i := 1; i <= 2; i++ {
				coarse += parent.At(i, j, k)
			}
		}
	}
	fine := child.SumActive() / float64(r*r*r)
	if math.Abs(coarse-fine) > 1e-13 {
		t.Fatalf("restriction not conservative: %v vs %v", coarse, fine)
	}
}

func TestProlongRestrictIdentity(t *testing.T) {
	// Restrict(Prolong(x)) == x for conservative linear prolongation.
	r := 2
	parent := NewField3(6, 6, 6, 2)
	rng := rand.New(rand.NewSource(3))
	for k := -2; k < 8; k++ {
		for j := -2; j < 8; j++ {
			for i := -2; i < 8; i++ {
				parent.Set(i, j, k, 1+rng.Float64())
			}
		}
	}
	child := NewField3(8, 8, 8, 1)
	off := 2 // child covers parent active cells 1..4 in each dim
	ProlongLinear(parent, child, off, off, off, r, 0)
	check := parent.Clone()
	Restrict(check, child, off, off, off, r)
	for k := 1; k <= 4; k++ {
		for j := 1; j <= 4; j++ {
			for i := 1; i <= 4; i++ {
				if d := math.Abs(check.At(i, j, k) - parent.At(i, j, k)); d > 1e-13 {
					t.Fatalf("prolong/restrict not identity at (%d,%d,%d): diff %g", i, j, k, d)
				}
			}
		}
	}
}

func TestProlongConstantPreservesConstant(t *testing.T) {
	parent := NewField3(4, 4, 4, 1)
	parent.Fill(3.5)
	child := NewField3(4, 4, 4, 2)
	ProlongLinear(parent, child, 2, 2, 2, 2, 2)
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				if child.At(i, j, k) != 3.5 {
					t.Fatalf("constant not preserved at (%d,%d,%d): %v", i, j, k, child.At(i, j, k))
				}
			}
		}
	}
}

func TestProlongLinearExactForLinearField(t *testing.T) {
	// A globally linear field is reproduced exactly by limited linear
	// prolongation (slopes all agree so the limiter passes them through).
	parent := NewField3(8, 8, 8, 2)
	fn := func(x, y, z float64) float64 { return 2*x + 3*y - z + 0.5 }
	for k := -2; k < 10; k++ {
		for j := -2; j < 10; j++ {
			for i := -2; i < 10; i++ {
				parent.Set(i, j, k, fn(float64(i)+0.5, float64(j)+0.5, float64(k)+0.5))
			}
		}
	}
	r := 2
	child := NewField3(8, 8, 8, 1)
	off := 4
	ProlongLinear(parent, child, off, off, off, r, 1)
	for k := -1; k < 9; k++ {
		for j := -1; j < 9; j++ {
			for i := -1; i < 9; i++ {
				// Fine cell center in parent cell coordinates.
				x := (float64(off+i) + 0.5) / float64(r)
				y := (float64(off+j) + 0.5) / float64(r)
				z := (float64(off+k) + 0.5) / float64(r)
				want := fn(x, y, z)
				if d := math.Abs(child.At(i, j, k) - want); d > 1e-12 {
					t.Fatalf("linear field not exact at (%d,%d,%d): got %v want %v", i, j, k, child.At(i, j, k), want)
				}
			}
		}
	}
}

func TestCopyOverlap(t *testing.T) {
	src := NewField3(4, 4, 4, 0)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				src.Set(i, j, k, float64(1000+i+10*j+100*k))
			}
		}
	}
	dst := NewField3(4, 4, 4, 1)
	dst.Fill(-1)
	// src origin sits at dst active (3,0,0): only a 1-cell-thick slab
	// (plus the ghost layer at i=4) overlaps.
	CopyOverlap(dst, src, 3, 0, 0, 1)
	if dst.At(3, 0, 0) != 1000 {
		t.Errorf("overlap copy wrong at (3,0,0): %v", dst.At(3, 0, 0))
	}
	if dst.At(4, 1, 2) != src.At(1, 1, 2) {
		t.Errorf("ghost fill wrong at (4,1,2): %v", dst.At(4, 1, 2))
	}
	if dst.At(2, 0, 0) != -1 {
		t.Errorf("non-overlapping cell touched: %v", dst.At(2, 0, 0))
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{5, 2, 2}, {-5, 2, -3}, {4, 2, 2}, {-4, 2, -2}, {0, 3, 0}, {-1, 4, -1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPropRestrictConservesSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(2)*2 // 2 or 4
		n := 4 * r
		child := NewField3(n, n, n, 0)
		for i := range child.Data {
			child.Data[i] = rng.Float64()
		}
		parent := NewField3(8, 8, 8, 0)
		Restrict(parent, child, 0, 0, 0, r)
		var coarse float64
		for k := 0; k < n/r; k++ {
			for j := 0; j < n/r; j++ {
				for i := 0; i < n/r; i++ {
					coarse += parent.At(i, j, k)
				}
			}
		}
		fine := child.SumActive() / float64(r*r*r)
		return math.Abs(coarse-fine) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropProlongBoundedByParentRange(t *testing.T) {
	// Limited prolongation never creates new extrema beyond the parent
	// stencil range (monotonicity of the minmod limiter).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parent := NewField3(4, 4, 4, 2)
		for i := range parent.Data {
			parent.Data[i] = rng.Float64()
		}
		pmin, pmax := math.Inf(1), math.Inf(-1)
		for _, v := range parent.Data {
			pmin = math.Min(pmin, v)
			pmax = math.Max(pmax, v)
		}
		child := NewField3(8, 8, 8, 0)
		ProlongLinear(parent, child, 0, 0, 0, 2, 0)
		for _, v := range child.Data {
			if v < pmin-1e-12 || v > pmax+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPeriodicBCFastMatchesReference drives the row/plane-copy fast path
// against a per-cell wrap reference over assorted (including non-cubic and
// minimum-size) shapes: every ghost must carry the bits of its wrapped
// active cell.
func TestPeriodicBCFastMatchesReference(t *testing.T) {
	wrap := func(v, n int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	shapes := [][4]int{{4, 4, 4, 2}, {8, 4, 2, 2}, {2, 2, 2, 1}, {5, 3, 7, 3}, {6, 1, 1, 1}}
	for _, s := range shapes {
		nx, ny, nz, ng := s[0], s[1], s[2], s[3]
		f := NewField3(nx, ny, nz, ng)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					f.Set(i, j, k, 1e-300*float64(1+i)+float64(i+17*j+291*k)*1.37)
				}
			}
		}
		f.ApplyPeriodicBC()
		for k := -ng; k < nz+ng; k++ {
			for j := -ng; j < ny+ng; j++ {
				for i := -ng; i < nx+ng; i++ {
					want := f.At(wrap(i, nx), wrap(j, ny), wrap(k, nz))
					if got := f.At(i, j, k); got != want {
						t.Fatalf("shape %v ghost (%d,%d,%d) = %v, want %v", s, i, j, k, got, want)
					}
				}
			}
		}
	}
}
