// Package clustering implements the Berger–Rigoutsos (1991) point
// clustering / grid generation algorithm the paper uses to choose
// rectangular subgrid regions covering all flagged cells "while attempting
// to minimize the number of unnecessarily refined points" (§3.2.2).
//
// The algorithm: take the bounding box of the flagged cells; if its filling
// efficiency is acceptable, emit it; otherwise split it at a hole (zero of
// the flag signature) or, failing that, at the strongest inflection of the
// signature's second difference (the "edge detection" step from machine
// vision), and recurse on both halves.
package clustering

import "fmt"

// Box is a rectangular index region, inclusive low corner, exclusive high
// corner, in the coordinate system of the flag field.
type Box struct {
	Lo, Hi [3]int
}

// Volume returns the cell count of the box.
func (b Box) Volume() int {
	v := 1
	for d := 0; d < 3; d++ {
		s := b.Hi[d] - b.Lo[d]
		if s <= 0 {
			return 0
		}
		v *= s
	}
	return v
}

// Contains reports whether cell (i,j,k) lies inside the box.
func (b Box) Contains(i, j, k int) bool {
	return i >= b.Lo[0] && i < b.Hi[0] &&
		j >= b.Lo[1] && j < b.Hi[1] &&
		k >= b.Lo[2] && k < b.Hi[2]
}

// Intersect returns the overlap of two boxes and whether it is non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(b.Lo[d], o.Lo[d])
		r.Hi[d] = min(b.Hi[d], o.Hi[d])
		if r.Lo[d] >= r.Hi[d] {
			return Box{}, false
		}
	}
	return r, true
}

// String implements fmt.Stringer.
func (b Box) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d,%d:%d]", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}

// Flags is a 3-D boolean field of cells needing refinement.
type Flags struct {
	Nx, Ny, Nz int
	Data       []bool
}

// NewFlags allocates a cleared flag field.
func NewFlags(nx, ny, nz int) *Flags {
	return &Flags{Nx: nx, Ny: ny, Nz: nz, Data: make([]bool, nx*ny*nz)}
}

// At returns the flag at (i,j,k).
func (f *Flags) At(i, j, k int) bool { return f.Data[(k*f.Ny+j)*f.Nx+i] }

// Set sets the flag at (i,j,k).
func (f *Flags) Set(i, j, k int, v bool) { f.Data[(k*f.Ny+j)*f.Nx+i] = v }

// Count returns the number of flagged cells.
func (f *Flags) Count() int {
	n := 0
	for _, v := range f.Data {
		if v {
			n++
		}
	}
	return n
}

// Params tunes the clustering.
type Params struct {
	// MinEfficiency is the minimum acceptable flagged/total fraction of
	// an emitted box (0.6-0.8 typical).
	MinEfficiency float64
	// MaxSize caps box edge length in cells (keeps grids "generally
	// small (~20^3) and numerous", §3.4). Zero disables the cap.
	MaxSize int
	// MinSize stops subdivision below this edge length.
	MinSize int
}

// DefaultParams returns the production configuration.
func DefaultParams() Params {
	return Params{MinEfficiency: 0.7, MaxSize: 32, MinSize: 2}
}

// Cluster returns a set of boxes covering every flagged cell.
func Cluster(f *Flags, p Params) []Box {
	bb, any := boundingBox(f, Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{f.Nx, f.Ny, f.Nz}})
	if !any {
		return nil
	}
	var out []Box
	cluster(f, bb, p, &out)
	return out
}

func cluster(f *Flags, b Box, p Params, out *[]Box) {
	bb, any := boundingBox(f, b)
	if !any {
		return
	}
	b = bb
	eff := efficiency(f, b)
	longest, axis := 0, 0
	for d := 0; d < 3; d++ {
		if s := b.Hi[d] - b.Lo[d]; s > longest {
			longest, axis = s, d
		}
	}
	needSplitForSize := p.MaxSize > 0 && longest > p.MaxSize
	if (eff >= p.MinEfficiency && !needSplitForSize) || longest <= p.MinSize {
		*out = append(*out, b)
		return
	}
	// Try a hole (zero signature plane), then an inflection cut, then a
	// midpoint bisection of the longest axis.
	if cutAxis, cutAt, ok := findHole(f, b); ok {
		splitAndRecurse(f, b, cutAxis, cutAt, p, out)
		return
	}
	if cutAt, ok := findInflection(f, b, axis); ok {
		splitAndRecurse(f, b, axis, cutAt, p, out)
		return
	}
	splitAndRecurse(f, b, axis, b.Lo[axis]+(b.Hi[axis]-b.Lo[axis])/2, p, out)
}

func splitAndRecurse(f *Flags, b Box, axis, at int, p Params, out *[]Box) {
	left, right := b, b
	left.Hi[axis] = at
	right.Lo[axis] = at
	if left.Volume() > 0 {
		cluster(f, left, p, out)
	}
	if right.Volume() > 0 {
		cluster(f, right, p, out)
	}
}

// signature sums flags over the planes perpendicular to axis within b.
func signature(f *Flags, b Box, axis int) []int {
	n := b.Hi[axis] - b.Lo[axis]
	sig := make([]int, n)
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				if f.At(i, j, k) {
					switch axis {
					case 0:
						sig[i-b.Lo[0]]++
					case 1:
						sig[j-b.Lo[1]]++
					default:
						sig[k-b.Lo[2]]++
					}
				}
			}
		}
	}
	return sig
}

// findHole looks for a zero plane in any axis signature (preferring the
// one closest to the box center, per Berger–Rigoutsos).
func findHole(f *Flags, b Box) (axis, at int, ok bool) {
	bestDist := 1 << 30
	for d := 0; d < 3; d++ {
		sig := signature(f, b, d)
		mid := len(sig) / 2
		for i := 1; i < len(sig)-1; i++ {
			if sig[i] == 0 {
				dist := abs(i - mid)
				if dist < bestDist {
					bestDist = dist
					axis, at, ok = d, b.Lo[d]+i, true
				}
			}
		}
	}
	return
}

// findInflection finds the strongest zero crossing of the second
// difference of the signature along the given axis (the Laplacian edge
// detector of the machine-vision step).
func findInflection(f *Flags, b Box, axis int) (at int, ok bool) {
	sig := signature(f, b, axis)
	n := len(sig)
	if n < 4 {
		return 0, false
	}
	lap := make([]int, n)
	for i := 1; i < n-1; i++ {
		lap[i] = sig[i-1] - 2*sig[i] + sig[i+1]
	}
	best := 0
	for i := 1; i < n-2; i++ {
		if lap[i]*lap[i+1] < 0 { // sign change between i and i+1
			strength := abs(lap[i] - lap[i+1])
			if strength > best {
				best = strength
				at, ok = b.Lo[axis]+i+1, true
			}
		}
	}
	return
}

func boundingBox(f *Flags, within Box) (Box, bool) {
	lo := [3]int{1 << 30, 1 << 30, 1 << 30}
	hi := [3]int{-(1 << 30), -(1 << 30), -(1 << 30)}
	found := false
	for k := within.Lo[2]; k < within.Hi[2]; k++ {
		for j := within.Lo[1]; j < within.Hi[1]; j++ {
			for i := within.Lo[0]; i < within.Hi[0]; i++ {
				if !f.At(i, j, k) {
					continue
				}
				found = true
				c := [3]int{i, j, k}
				for d := 0; d < 3; d++ {
					if c[d] < lo[d] {
						lo[d] = c[d]
					}
					if c[d]+1 > hi[d] {
						hi[d] = c[d] + 1
					}
				}
			}
		}
	}
	return Box{Lo: lo, Hi: hi}, found
}

func efficiency(f *Flags, b Box) float64 {
	if b.Volume() == 0 {
		return 0
	}
	n := 0
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				if f.At(i, j, k) {
					n++
				}
			}
		}
	}
	return float64(n) / float64(b.Volume())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
