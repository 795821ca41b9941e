package hydro

import (
	"math"
	"math/rand"
	"testing"
)

// These property tests pin the vectorization-friendly limiter rewrites to
// the original branchy forms bit for bit. The reference implementations
// below are verbatim copies of the seed revision's helpers (pre-rewrite);
// every rewrite in sweep.go must agree with them on every float64 input we
// can throw at it — including signed zeros, subnormals and huge magnitudes
// (NaN-free: a NaN in a primitive is already a solver failure upstream).

// refMcSlope is the seed's mcSlope: math.Min/math.Abs call chain.
func refMcSlope(l, c, r float64) float64 {
	d := 0.5 * (r - l)
	dl := 2 * (c - l)
	dr := 2 * (r - c)
	if dl*dr <= 0 {
		return 0
	}
	m := math.Min(math.Abs(d), math.Min(math.Abs(dl), math.Abs(dr)))
	if d < 0 {
		return -m
	}
	return m
}

// refPpmMonotonize is the seed's ppmMonotonize with dq*dq/6 recomputed per
// comparison.
func refPpmMonotonize(q, lft, rgt float64) (float64, float64) {
	if (rgt-q)*(q-lft) <= 0 {
		return q, q
	}
	dq := rgt - lft
	t := dq * (q - 0.5*(lft+rgt))
	if t > dq*dq/6 {
		lft = 3*q - 2*rgt
	} else if -dq*dq/6 > t {
		rgt = 3*q - 2*lft
	}
	return lft, rgt
}

// refPpmInterface is the seed's fused 4th-order face value, which computed
// both neighbouring slopes per face instead of sharing them.
func refPpmInterface(qm2, qm1, qp1, qp2 float64) float64 {
	d1 := refMcSlope(qm2, qm1, qp1)
	d2 := refMcSlope(qm1, qp1, qp2)
	return qm1 + 0.5*(qp1-qm1) - (d2-d1)/6
}

// refAvgRight/refAvgLeft are the seed's parabola averages with the moments
// dq and q6 recomputed inline on every call.
func refAvgRight(q, cl, cr []float64, i int, sigma float64) float64 {
	dq := cr[i] - cl[i]
	q6 := 6 * (q[i] - 0.5*(cl[i]+cr[i]))
	return cr[i] - 0.5*sigma*(dq-(1-2.0/3.0*sigma)*q6)
}

func refAvgLeft(q, cl, cr []float64, i int, sigma float64) float64 {
	dq := cr[i] - cl[i]
	q6 := 6 * (q[i] - 0.5*(cl[i]+cr[i]))
	return cl[i] + 0.5*sigma*(dq+(1-2.0/3.0*sigma)*q6)
}

// sameBits reports float64 identity including the sign of zero.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// awkwardFloats is the deterministic pool of edge-case values mixed into
// every randomized draw.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), // ±0
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormal edge
	1e-310, -1e-310, // mid-subnormal
	math.MaxFloat64 / 4, -math.MaxFloat64 / 4, // huge but overflow-safe under *2
	1e-20, -1e-20, 1, -1, 0.5, -0.5, 3, -3,
}

// randAwkward draws from the edge pool ~25% of the time, otherwise a
// random sign/exponent/mantissa float spanning subnormal to ~1e30.
func randAwkward(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	}
	m := rng.Float64()*2 - 1
	exp := rng.Intn(100) - 60 // 1e-60 .. 1e+39, forced subnormal sometimes below
	v := m * math.Pow(10, float64(exp))
	if rng.Intn(16) == 0 {
		v *= 1e-300 // push into the subnormal range
	}
	return v
}

func TestLimiterBitwiseMcSlope(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 200000; it++ {
		l, c, r := randAwkward(rng), randAwkward(rng), randAwkward(rng)
		got, want := mcSlope(l, c, r), refMcSlope(l, c, r)
		if !sameBits(got, want) {
			t.Fatalf("mcSlope(%x, %x, %x) = %x, seed form gives %x", l, c, r, got, want)
		}
	}
	// The documented copysign hazard: d underflowing to -0 must yield +m.
	// (-0 reproduces d = 0.5*(r-l) = -0 with monotone dl, dr > 0.)
	sub := math.SmallestNonzeroFloat64
	if got := mcSlope(sub, sub, sub); !sameBits(got, refMcSlope(sub, sub, sub)) {
		t.Fatal("mcSlope diverges on the subnormal fixed point")
	}
}

func TestLimiterBitwisePpmMonotonize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 200000; it++ {
		q, lft, rgt := randAwkward(rng), randAwkward(rng), randAwkward(rng)
		gl, gr := ppmMonotonize(q, lft, rgt)
		wl, wr := refPpmMonotonize(q, lft, rgt)
		if !sameBits(gl, wl) || !sameBits(gr, wr) {
			t.Fatalf("ppmMonotonize(%x, %x, %x) = (%x, %x), seed form gives (%x, %x)",
				q, lft, rgt, gl, gr, wl, wr)
		}
	}
}

// seedParabolae is the seed pipeline over a whole pencil: per-face
// ppmInterface (both slopes recomputed per face), then monotonize, for
// every cell with a full stencil.
func seedParabolae(q, cl, cr []float64) {
	for i := 2; i <= len(q)-3; i++ {
		fl := refPpmInterface(q[i-2], q[i-1], q[i], q[i+1])
		fr := refPpmInterface(q[i-1], q[i], q[i+1], q[i+2])
		cl[i], cr[i] = refPpmMonotonize(q[i], fl, fr)
	}
}

// TestLimiterBitwiseParabolaAverages drives the fused kernels' upwind
// averages against the seed's, which recompute the moments inline per
// call from the seed parabolae: passiveRecon's states at every active
// interface, and avgRight/avgLeft over parabolae's stored moments for
// every cell the interfaces read.
func TestLimiterBitwiseParabolaAverages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 12} {
		ng := NGhost
		tot := n + 2*ng
		pc := newPencil(n, ng, 0)
		q := make([]float64, tot)
		wl, wr := make([]float64, tot), make([]float64, tot)
		cl, cr := make([]float64, tot), make([]float64, tot)
		dq, q6 := make([]float64, tot), make([]float64, tot)
		for it := 0; it < 20000; it++ {
			for i := range q {
				q[i] = randAwkward(rng)
			}
			for f := range pc.sigR {
				pc.sigR[f], pc.sigL[f] = clamp01(randAwkward(rng)), clamp01(randAwkward(rng))
			}
			seedParabolae(q, wl, wr)
			pc.passiveRecon(q, 2)
			for f := ng; f <= ng+n; f++ {
				if g, w := pc.stL[2][f], refAvgRight(q, wl, wr, f-1, pc.sigR[f]); !sameBits(g, w) {
					t.Fatalf("n=%d passiveRecon left state at interface %d: %x vs seed %x", n, f, g, w)
				}
				if g, w := pc.stR[2][f], refAvgLeft(q, wl, wr, f, pc.sigL[f]); !sameBits(g, w) {
					t.Fatalf("n=%d passiveRecon right state at interface %d: %x vs seed %x", n, f, g, w)
				}
			}
			pc.parabolae(q, cl, cr, dq, q6)
			for i := ng - 1; i <= ng+n; i++ {
				sigma := clamp01(randAwkward(rng))
				if g, w := avgRight(cr[i], dq[i], q6[i], sigma), refAvgRight(q, wl, wr, i, sigma); !sameBits(g, w) {
					t.Fatalf("n=%d avgRight cell %d sigma=%v: %x vs seed %x", n, i, sigma, g, w)
				}
				if g, w := avgLeft(cl[i], dq[i], q6[i], sigma), refAvgLeft(q, wl, wr, i, sigma); !sameBits(g, w) {
					t.Fatalf("n=%d avgLeft cell %d sigma=%v: %x vs seed %x", n, i, sigma, g, w)
				}
			}
		}
	}
}

// TestLimiterBitwiseReconParabola drives the fused rolling-slope
// reconstruction against the seed pipeline (per-face ppmInterface, then
// monotonize) on every cell an active interface reads, over whole random
// pencils.
func TestLimiterBitwiseReconParabola(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 12} {
		ng := NGhost
		tot := n + 2*ng
		pc := newPencil(n, ng, 0)
		q := make([]float64, tot)
		wl, wr := make([]float64, tot), make([]float64, tot)
		cl, cr := make([]float64, tot), make([]float64, tot)
		dq, q6 := make([]float64, tot), make([]float64, tot)
		for it := 0; it < 5000; it++ {
			for i := range q {
				q[i] = randAwkward(rng)
			}
			seedParabolae(q, wl, wr)
			pc.parabolae(q, cl, cr, dq, q6)
			for i := ng - 1; i <= ng+n; i++ {
				if !sameBits(cl[i], wl[i]) || !sameBits(cr[i], wr[i]) {
					t.Fatalf("n=%d parabolae cell %d: (%x, %x) vs seed (%x, %x)", n, i, cl[i], cr[i], wl[i], wr[i])
				}
			}
		}
	}
}

// TestFloorBitwiseBuiltinMax pins the floor rewrites (max(x, floor) for
// `if x < floor { x = floor }`) for the strictly positive floors the
// solver uses (DefaultParams: 1e-20). With floor > 0 the two forms agree
// on every input including -0 and subnormals; a zero floor would NOT be
// safe (max(-0, +0) = +0 while the branch keeps -0), which is why
// Params floors must stay positive.
func TestFloorBitwiseBuiltinMax(t *testing.T) {
	branchy := func(x, floor float64) float64 {
		if x < floor {
			return floor
		}
		return x
	}
	rng := rand.New(rand.NewSource(5))
	floors := []float64{1e-20, DefaultParams().FloorRho, DefaultParams().FloorEint, 1e-300, 1.5}
	for it := 0; it < 200000; it++ {
		x := randAwkward(rng)
		floor := floors[rng.Intn(len(floors))]
		if got, want := max(x, floor), branchy(x, floor); !sameBits(got, want) {
			t.Fatalf("max(%x, %x) = %x, branchy floor gives %x", x, floor, got, want)
		}
	}
}

// TestMinMaxBitwiseBuiltin pins the Riemann-solver rewrites of
// math.Min/math.Max to the builtins over awkward values (the builtins
// share the stdlib semantics exactly — including min(-0, +0) = -0 — but
// compile to branch-free instructions).
func TestMinMaxBitwiseBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for it := 0; it < 200000; it++ {
		a, b := randAwkward(rng), randAwkward(rng)
		if got, want := min(a, b), math.Min(a, b); !sameBits(got, want) {
			t.Fatalf("min(%x, %x) = %x, math.Min gives %x", a, b, got, want)
		}
		if got, want := max(a, b), math.Max(a, b); !sameBits(got, want) {
			t.Fatalf("max(%x, %x) = %x, math.Max gives %x", a, b, got, want)
		}
	}
}
