package amr

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/clustering"
	"repro/internal/mesh"
)

// TestSubtractBoxesCoversOnce checks over random box sets that the pieces
// of b minus cuts cover every cell of b outside the cuts exactly once and
// nothing else.
func TestSubtractBoxesCoversOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	box := func() clustering.Box {
		var b clustering.Box
		for d := 0; d < 3; d++ {
			b.Lo[d] = rng.Intn(10) - 2
			b.Hi[d] = b.Lo[d] + 1 + rng.Intn(8)
		}
		return b
	}
	for trial := 0; trial < 500; trial++ {
		b := box()
		cuts := make([]clustering.Box, rng.Intn(6))
		for i := range cuts {
			cuts[i] = box()
		}
		pieces := subtractBoxes(b, cuts)
		for k := -3; k < 18; k++ {
			for j := -3; j < 18; j++ {
				for i := -3; i < 18; i++ {
					want := 0
					if b.Contains(i, j, k) {
						want = 1
						for _, c := range cuts {
							if c.Contains(i, j, k) {
								want = 0
							}
						}
					}
					got := 0
					for _, p := range pieces {
						if p.Contains(i, j, k) {
							got++
						}
					}
					if got != want {
						t.Fatalf("trial %d: b %v cuts %v: cell (%d,%d,%d) in %d pieces, want %d", trial, b, cuts, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestDilateMatchesSerial pins the three 1-D passes to the parent's cube
// scan (export_test.go) over random flag fields, flags on the faces
// included, at buffers 0-3.
func TestDilateMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 400; trial++ {
		n := [3]int{1 + rng.Intn(9), 1 + rng.Intn(9), 1 + rng.Intn(9)}
		fl := clustering.NewFlags(n[0], n[1], n[2])
		density := rng.Float64() * 0.1
		for idx := range fl.Data {
			fl.Data[idx] = rng.Float64() < density
		}
		// One flag on a random face, so the buffer is clipped there.
		c := [3]int{rng.Intn(n[0]), rng.Intn(n[1]), rng.Intn(n[2])}
		d := rng.Intn(3)
		c[d] = []int{0, n[d] - 1}[rng.Intn(2)]
		fl.Set(c[0], c[1], c[2], true)
		buf := rng.Intn(4)
		want := &clustering.Flags{Nx: fl.Nx, Ny: fl.Ny, Nz: fl.Nz, Data: append([]bool(nil), fl.Data...)}
		serialDilate(want, buf)
		dilate(fl, buf)
		if !reflect.DeepEqual(want.Data, fl.Data) {
			t.Fatalf("trial %d: %v flags, buffer %d: dilation differs from the cube scan", trial, n, buf)
		}
	}
}

// TestTouchesMatchesCopyOverlap checks that touches is exactly the
// condition for a one-ghost-layer CopyOverlap between two same-level
// grids to copy anything, in either direction.
func TestTouchesMatchesCopyOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	copies := func(dst, src *Grid) bool {
		df := mesh.NewField3(dst.Nx, dst.Ny, dst.Nz, 1)
		sf := mesh.NewField3(src.Nx, src.Ny, src.Nz, 1)
		sf.Fill(1)
		mesh.CopyOverlap(df, sf, src.Lo[0]-dst.Lo[0], src.Lo[1]-dst.Lo[1], src.Lo[2]-dst.Lo[2], 1)
		return slices.Contains(df.Data, 1)
	}
	grid := func() *Grid {
		return &Grid{Lo: [3]int{rng.Intn(12), rng.Intn(12), rng.Intn(12)}, Nx: 1 + rng.Intn(5), Ny: 1 + rng.Intn(5), Nz: 1 + rng.Intn(5)}
	}
	seen := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		a, b := grid(), grid()
		want := copies(a, b) || copies(b, a)
		if got := touches(a, b); got != want || touches(b, a) != want {
			t.Fatalf("trial %d: %v and %v: touches %v, CopyOverlap copies %v", trial, a, b, got, want)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("degenerate draw: %v", seen)
	}
}

// TestGravityWavesOrderEveryTouchingPair: on random levels, no two grids
// of a wave touch, and a touching pair's lower index is in the earlier
// wave; every grid is in exactly one wave.
func TestGravityWavesOrderEveryTouchingPair(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		grids := make([]*Grid, 1+rng.Intn(30))
		for i := range grids {
			grids[i] = &Grid{Lo: [3]int{rng.Intn(24), rng.Intn(24), rng.Intn(24)}, Nx: 2 + 2*rng.Intn(3), Ny: 2 + 2*rng.Intn(3), Nz: 2 + 2*rng.Intn(3)}
		}
		wave := make([]int, len(grids))
		for i := range wave {
			wave[i] = -1
		}
		for w, members := range gravityWaves(grids) {
			for _, i := range members {
				if wave[i] != -1 {
					t.Fatalf("trial %d: grid %d in waves %d and %d", trial, i, wave[i], w)
				}
				wave[i] = w
			}
		}
		for j := range grids {
			if wave[j] == -1 {
				t.Fatalf("trial %d: grid %d in no wave", trial, j)
			}
			for i := 0; i < j; i++ {
				if touches(grids[i], grids[j]) && wave[i] >= wave[j] {
					t.Fatalf("trial %d: touching grids %d, %d in waves %d, %d", trial, i, j, wave[i], wave[j])
				}
			}
		}
	}
}
