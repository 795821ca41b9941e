package analysis

// Derived-output requests: the declarative form of the §6 data products
// (slices, projections, radial profiles, collapsed-object catalogs and
// raw snapshots) that the sim job service evaluates at root-step
// boundaries and the enzogo -output flag evaluates in one-shot runs.
// An OutputRequest says *what* to derive and *when* (a cadence in root
// steps or code time); Evaluate turns it into a self-contained Artifact
// (PGM/PNG/JSON/snapshot bytes) using the same hierarchy-aware kernels as
// the one-shot CLI tools, driven by the caller's par worker budget.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/amr"
	"repro/internal/snapshot"
	"repro/internal/units"
)

// OutputKind names one family of derived data products.
type OutputKind string

// The supported product families.
const (
	// KindSlice samples a 2-D plane of a cell field at the finest
	// covering resolution (the Fig. 3 quantity when field=logrho).
	KindSlice OutputKind = "slice"
	// KindProjection integrates a cell field along an axis — the §6
	// surface-density / projected X-ray map.
	KindProjection OutputKind = "projection"
	// KindPyramid is KindProjection re-rendered for scale-out serving: a
	// deep-zoom tile container (fixed PyramidTileSize PGM tiles at
	// power-of-two downsample levels) instead of one monolithic image.
	// Level-0 tiles reassemble byte-for-byte into the PGM of the
	// equivalent projection request. See BuildTileSet.
	KindPyramid OutputKind = "pyramid"
	// KindProfile is the Fig. 4 mass-weighted radial profile about the
	// current densest point.
	KindProfile OutputKind = "profile"
	// KindClumps is the §6 collapsed-object catalog: density peaks above
	// a threshold with their separations and enclosed masses.
	KindClumps OutputKind = "clumps"
	// KindSnapshot is the full self-describing run state (the
	// internal/snapshot format), so a consumer can restart or re-analyze
	// offline without touching the service host's disk.
	KindSnapshot OutputKind = "snapshot"
	// KindCheckpoint is a restart checkpoint: the same self-describing
	// payload as KindSnapshot under a checkpoint_* name. It exists as a
	// distinct kind so checkpoint cadence rides the same OutputPlan
	// machinery as every other product while consumers (the sim job
	// store, an enzogo -output run writing restart files) can route it
	// differently from science products. The sim service reserves it for
	// its own durability machinery and rejects it in job requests.
	KindCheckpoint OutputKind = "checkpoint"
)

// OutputFields lists the cell quantities slices and projections accept,
// keyed by the OutputRequest.Field name.
var OutputFields = map[string]string{
	"rho":      "gas density [code units]",
	"logrho":   "log10 gas density",
	"dmrho":    "dark-matter density [code units]",
	"eint":     "specific internal energy [code units]",
	"pressure": "gas pressure (gamma-1)*rho*eint [code units]",
	"temp":     "temperature [K] (species-aware on chemistry runs)",
	"vx":       "x velocity [code units]",
	"vy":       "y velocity [code units]",
	"vz":       "z velocity [code units]",
	"xray":     "X-ray bremsstrahlung emissivity [erg cm^-3 s^-1] (chemistry runs)",
}

// Image encodings for slice and projection products.
const (
	FormatPGM  = "pgm"  // 8-bit binary PGM, auto-scaled (default)
	FormatPNG  = "png"  // 8-bit grayscale PNG, auto-scaled
	FormatJSON = "json" // ImagePayload with the raw float64 samples
)

// OutputRequest declares one derived data product and its cadence. The
// zero cadence (Every == 0 and EveryTime == 0) means "once, at the end of
// the run"; Every = k fires after every k-th root step; EveryTime = T
// fires whenever code time crosses a multiple of T. Unset knobs take the
// kind's defaults (see Normalize). Requests are attached to sim.Request
// (service jobs and enzobatch sweep rows) or passed to enzogo -output.
type OutputRequest struct {
	// Kind selects the product family. Required.
	Kind OutputKind `json:"kind"`
	// Field is the sampled cell quantity of a slice or projection (see
	// OutputFields; default "rho"). Ignored by the other kinds.
	Field string `json:"field,omitempty"`
	// Axis is the slice normal / projection direction: 0=x (the zero
	// value, hence the default), 1=y, 2=z.
	Axis int `json:"axis,omitempty"`
	// Coord is the slice-plane position in box units (default 0.5; an
	// explicit 0 reads as unset — use a small offset for the 0-plane of
	// the periodic box).
	Coord float64 `json:"coord,omitempty"`
	// N is the image resolution (n×n pixels, default 64) or the number
	// of radial profile bins (default 24).
	N int `json:"n,omitempty"`
	// NSamp is the number of line-of-sight samples of a projection
	// (default N).
	NSamp int `json:"nsamp,omitempty"`
	// Every fires the request after every Every-th root step (0 = only
	// at the end of the run).
	Every int `json:"every,omitempty"`
	// EveryTime fires the request whenever code time crosses a multiple
	// of EveryTime (0 = disabled). The first root step never fires a
	// time cadence — there is no previous time to cross from.
	EveryTime float64 `json:"every_time,omitempty"`
	// Format encodes image products: "pgm" (default), "png" or "json".
	Format string `json:"format,omitempty"`
	// Threshold is the clump-finder density threshold in code units
	// (default 10).
	Threshold float64 `json:"threshold,omitempty"`
	// MinSep is the minimum clump separation in box units (default 0.05).
	MinSep float64 `json:"min_sep,omitempty"`
}

// Normalize validates the request and fills every unset knob with its
// kind's default, zeroing knobs the kind does not use — so physically
// identical requests have identical canonical forms no matter how
// sparsely they were spelled.
func (r OutputRequest) Normalize() (OutputRequest, error) {
	switch r.Kind {
	case KindSlice, KindProjection, KindPyramid:
		if r.Field == "" {
			r.Field = "rho"
		}
		if _, ok := OutputFields[r.Field]; !ok {
			return r, fmt.Errorf("analysis: output field %q unknown (have %s)", r.Field, fieldNames())
		}
		if r.Axis < 0 || r.Axis > 2 {
			return r, fmt.Errorf("analysis: output axis %d not in 0..2", r.Axis)
		}
		if r.N == 0 {
			if r.Kind == KindPyramid {
				r.N = 256
			} else {
				r.N = 64
			}
		}
		if r.N < 4 || r.N > 4096 {
			return r, fmt.Errorf("analysis: output resolution n=%d not in 4..4096", r.N)
		}
		if r.Kind == KindPyramid {
			// Tiles are always PGM; the container is the format.
			if r.Format != "" {
				return r, fmt.Errorf("analysis: pyramid outputs have no format knob (tiles are PGM)")
			}
			if r.N < PyramidTileSize || r.N&(r.N-1) != 0 {
				return r, fmt.Errorf("analysis: pyramid resolution n=%d must be a power of two >= %d", r.N, PyramidTileSize)
			}
		} else {
			if r.Format == "" {
				r.Format = FormatPGM
			}
			if r.Format != FormatPGM && r.Format != FormatPNG && r.Format != FormatJSON {
				return r, fmt.Errorf("analysis: output format %q not pgm|png|json", r.Format)
			}
		}
		if r.Kind == KindSlice {
			if r.Coord == 0 {
				r.Coord = 0.5
			}
			if !(r.Coord >= 0 && r.Coord < 1) { // NaN fails too
				return r, fmt.Errorf("analysis: slice coord %g not in [0,1)", r.Coord)
			}
			r.NSamp = 0
		} else {
			if r.NSamp == 0 {
				r.NSamp = r.N
			}
			if r.NSamp < 1 || r.NSamp > 4096 {
				return r, fmt.Errorf("analysis: projection nsamp=%d not in 1..4096", r.NSamp)
			}
			r.Coord = 0
		}
		r.Threshold, r.MinSep = 0, 0
	case KindProfile:
		if r.N == 0 {
			r.N = 24
		}
		if r.N < 1 || r.N > 4096 {
			return r, fmt.Errorf("analysis: profile bins n=%d not in 1..4096", r.N)
		}
		r.Field, r.Axis, r.Coord, r.NSamp, r.Format = "", 0, 0, 0, ""
		r.Threshold, r.MinSep = 0, 0
	case KindClumps:
		if r.Threshold == 0 {
			r.Threshold = 10
		}
		if r.Threshold < 0 || math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
			return r, fmt.Errorf("analysis: clump threshold %g must be finite and positive", r.Threshold)
		}
		if r.MinSep == 0 {
			r.MinSep = 0.05
		}
		if !(r.MinSep > 0 && r.MinSep <= 1) { // NaN fails too
			return r, fmt.Errorf("analysis: clump min_sep %g not in (0,1]", r.MinSep)
		}
		r.Field, r.Axis, r.Coord, r.N, r.NSamp, r.Format = "", 0, 0, 0, 0, ""
	case KindSnapshot, KindCheckpoint:
		r.Field, r.Axis, r.Coord, r.N, r.NSamp, r.Format = "", 0, 0, 0, 0, ""
		r.Threshold, r.MinSep = 0, 0
	default:
		return r, fmt.Errorf("analysis: output kind %q unknown (want slice|projection|pyramid|profile|clumps|snapshot|checkpoint)", r.Kind)
	}
	if r.Every < 0 {
		return r, fmt.Errorf("analysis: output cadence every=%d must be >= 0", r.Every)
	}
	if r.EveryTime < 0 || math.IsNaN(r.EveryTime) || math.IsInf(r.EveryTime, 0) {
		return r, fmt.Errorf("analysis: output cadence every_time=%g must be finite and >= 0", r.EveryTime)
	}
	r.EveryTime += 0 // -0 and 0 are one cadence, so one canonical form
	return r, nil
}

func fieldNames() string {
	return strings.Join(slices.Sorted(maps.Keys(OutputFields)), "|")
}

// Canonical renders a normalized request as a deterministic string —
// every knob in fixed order — so that a job's output set participates in
// the sim scheduler's dedupe/cache identity.
func (r OutputRequest) Canonical() string {
	return fmt.Sprintf("%s(field=%s;axis=%d;coord=%s;n=%d;nsamp=%d;every=%d;everytime=%s;format=%s;threshold=%s;minsep=%s)",
		r.Kind, r.Field, r.Axis, fmtG(r.Coord), r.N, r.NSamp, r.Every,
		fmtG(r.EveryTime), r.Format, fmtG(r.Threshold), fmtG(r.MinSep))
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CanonicalOutputs renders an ordered output-request list canonically:
// "[]" when empty, otherwise "[req1+req2+...]" in request order (order is
// identity — it numbers the artifacts).
func CanonicalOutputs(reqs []OutputRequest) string {
	parts := make([]string, len(reqs))
	for i, r := range reqs {
		parts[i] = r.Canonical()
	}
	return "[" + strings.Join(parts, "+") + "]"
}

// ParseOutputRequest parses the compact CLI spec accepted by the enzogo
// -output flag: "kind[,key=value...]" with keys field, axis, coord, n,
// nsamp, every, everytime, format, threshold, minsep. For example:
//
//	projection,field=rho,axis=2,n=128,every=5
//	slice,field=temp,coord=0.25,format=png
//	profile,n=32
//	clumps,threshold=50,minsep=0.1
//	snapshot,every=10
//
// The result is not yet normalized; callers hand it to NewOutputPlan (or
// Normalize) for validation and defaulting.
func ParseOutputRequest(spec string) (OutputRequest, error) {
	parts := strings.Split(spec, ",")
	r := OutputRequest{Kind: OutputKind(strings.TrimSpace(parts[0]))}
	if r.Kind == "" {
		return r, fmt.Errorf("analysis: empty output spec")
	}
	for _, kv := range parts[1:] {
		key, raw, ok := strings.Cut(kv, "=")
		if !ok {
			return r, fmt.Errorf("analysis: output spec %q: %q is not key=value", spec, kv)
		}
		key, raw = strings.TrimSpace(key), strings.TrimSpace(raw)
		var err error
		switch key {
		case "field":
			r.Field = raw
		case "format":
			r.Format = raw
		case "axis":
			r.Axis, err = strconv.Atoi(raw)
		case "n":
			r.N, err = strconv.Atoi(raw)
		case "nsamp":
			r.NSamp, err = strconv.Atoi(raw)
		case "every":
			r.Every, err = strconv.Atoi(raw)
		case "coord":
			r.Coord, err = strconv.ParseFloat(raw, 64)
		case "everytime":
			r.EveryTime, err = strconv.ParseFloat(raw, 64)
		case "threshold":
			r.Threshold, err = strconv.ParseFloat(raw, 64)
		case "minsep":
			r.MinSep, err = strconv.ParseFloat(raw, 64)
		default:
			return r, fmt.Errorf("analysis: output spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return r, fmt.Errorf("analysis: output spec %q: bad %s: %v", spec, key, err)
		}
	}
	return r, nil
}

// Artifact is one evaluated data product: self-describing metadata plus
// the encoded payload bytes, ready to be stored, served over HTTP, or
// written to a file named Name.
type Artifact struct {
	// Name is the product's file name, unique per (request, step):
	// "projection_rho_z_step0004.pgm". Plans prefix it with the request
	// index, so two requests for overlapping products cannot collide.
	Name string `json:"name"`
	// Kind and Field echo the producing request.
	Kind  OutputKind `json:"kind"`
	Field string     `json:"field,omitempty"`
	// Step is the 0-based root step the product was derived after, and
	// Time the code time of that state.
	Step int     `json:"step"`
	Time float64 `json:"time"`
	// ContentType is the payload MIME type.
	ContentType string `json:"content_type"`
	// RawSize is the uncompressed payload size of a compressed product
	// (snapshot/checkpoint grid records before deflate); 0 for products
	// whose Data is not compressed. len(Data) is always the on-wire size,
	// so artifact indexes can report both sides of the compression.
	RawSize int64 `json:"raw_size,omitempty"`
	// Data is the encoded payload. Omitted from JSON metadata listings.
	Data []byte `json:"-"`
}

// ImagePayload is the JSON encoding of a slice or projection product
// (Format "json"): the request echo plus the raw float64 samples, row
// index = the second in-plane axis.
type ImagePayload struct {
	Kind  OutputKind  `json:"kind"`
	Field string      `json:"field"`
	Axis  int         `json:"axis"`
	Coord float64     `json:"coord,omitempty"`
	Step  int         `json:"step"`
	Time  float64     `json:"time"`
	Data  [][]float64 `json:"data"`
}

// ProfilePayload is the JSON encoding of a profile product.
type ProfilePayload struct {
	Step    int      `json:"step"`
	Time    float64  `json:"time"`
	Profile *Profile `json:"profile"`
}

// ClumpsPayload is the JSON encoding of a clump-catalog product.
type ClumpsPayload struct {
	Step      int               `json:"step"`
	Time      float64           `json:"time"`
	Threshold float64           `json:"threshold"`
	MinSep    float64           `json:"min_sep"`
	Clumps    []CollapsedObject `json:"clumps"`
}

// FieldExtractor returns the cell-quantity sampler for a named output
// field on this hierarchy (temperature and X-ray emissivity need the
// run's units and species).
func FieldExtractor(h *amr.Hierarchy, name string) (func(g *amr.Grid, i, j, k int) float64, error) {
	gamma := h.Cfg.Hydro.Gamma
	switch name {
	case "rho":
		return func(g *amr.Grid, i, j, k int) float64 { return g.State.Rho.At(i, j, k) }, nil
	case "logrho":
		return func(g *amr.Grid, i, j, k int) float64 {
			return math.Log10(math.Max(g.State.Rho.At(i, j, k), 1e-300))
		}, nil
	case "dmrho":
		return func(g *amr.Grid, i, j, k int) float64 { return g.DMRho.At(i, j, k) }, nil
	case "eint":
		return func(g *amr.Grid, i, j, k int) float64 { return g.State.Eint.At(i, j, k) }, nil
	case "pressure":
		return func(g *amr.Grid, i, j, k int) float64 {
			return (gamma - 1) * g.State.Rho.At(i, j, k) * g.State.Eint.At(i, j, k)
		}, nil
	case "temp":
		return temperatureExtractor(h), nil
	case "vx":
		return func(g *amr.Grid, i, j, k int) float64 { return g.State.Vx.At(i, j, k) }, nil
	case "vy":
		return func(g *amr.Grid, i, j, k int) float64 { return g.State.Vy.At(i, j, k) }, nil
	case "vz":
		return func(g *amr.Grid, i, j, k int) float64 { return g.State.Vz.At(i, j, k) }, nil
	case "xray":
		return func(g *amr.Grid, i, j, k int) float64 { return XRayEmissivity(h, g, i, j, k) }, nil
	}
	return nil, fmt.Errorf("analysis: output field %q unknown (have %s)", name, fieldNames())
}

// Temperature returns the cell temperature [K], species-aware on
// chemistry runs and mean-molecular-weight-neutral otherwise — the same
// convention as RadialProfile's Temp column.
func Temperature(h *amr.Hierarchy, g *amr.Grid, i, j, k int) float64 {
	return temperatureExtractor(h)(g, i, j, k)
}

func temperatureExtractor(h *amr.Hierarchy) func(g *amr.Grid, i, j, k int) float64 {
	gamma := h.Cfg.Hydro.Gamma
	u := h.Cfg.Units
	if !h.Cfg.Chemistry {
		return func(g *amr.Grid, i, j, k int) float64 {
			return u.TempFromE(g.State.Eint.At(i, j, k), gamma, units.MeanMolecularWeightNeutral)
		}
	}
	return func(g *amr.Grid, i, j, k int) float64 {
		mu := cellMu(g, i, j, k)
		return g.State.Eint.At(i, j, k) * u.Velocity * u.Velocity * (gamma - 1) * mu * units.MProton / units.KBoltzmann
	}
}

// Evaluate derives the product from the hierarchy's current state after
// root step `step` (0-based), running the sampling kernels on `workers`
// par goroutines (0 = NumCPU, 1 = serial). The request must be
// normalized. problem is the registry name embedded in snapshot products.
// Artifacts are bitwise independent of the worker count.
func (r OutputRequest) Evaluate(h *amr.Hierarchy, problem string, step, workers int) (Artifact, error) {
	art := Artifact{Kind: r.Kind, Field: r.Field, Step: step, Time: h.Time}
	switch r.Kind {
	case KindSlice:
		value, err := FieldExtractor(h, r.Field)
		if err != nil {
			return art, err
		}
		data := Slice(h, r.Axis, r.Coord, 0, 1, 0, 1, r.N, workers, value)
		return r.encodeImage(art, data)
	case KindProjection:
		value, err := FieldExtractor(h, r.Field)
		if err != nil {
			return art, err
		}
		data := ProjectField(h, r.Axis, 0, 1, 0, 1, r.N, r.NSamp, workers, value)
		return r.encodeImage(art, data)
	case KindPyramid:
		value, err := FieldExtractor(h, r.Field)
		if err != nil {
			return art, err
		}
		// Same base map (and auto-scaling) as the equivalent projection,
		// so level-0 tiles stitch back into that request's exact PGM.
		data := ProjectField(h, r.Axis, 0, 1, 0, 1, r.N, r.NSamp, workers, value)
		payload, err := BuildTileSet(data, PyramidTileSize, workers)
		if err != nil {
			return art, err
		}
		art.Name = fmt.Sprintf("pyramid_%s_%c_step%04d.tiles", r.Field, "xyz"[r.Axis], step)
		art.ContentType = TileSetContentType
		art.Data = payload
		return art, nil
	case KindProfile:
		center, _ := DensestPoint(h)
		pr, err := RadialProfile(h, center, ProfileParams{
			RMin:    0.5 * h.FinestDx(),
			RMax:    0.5,
			NBins:   r.N,
			Gamma:   h.Cfg.Hydro.Gamma,
			Units:   h.Cfg.Units,
			Workers: workers,
		})
		if err != nil {
			return art, err
		}
		art.Name = fmt.Sprintf("profile_step%04d.json", step)
		return encodeJSON(art, ProfilePayload{Step: step, Time: h.Time, Profile: pr})
	case KindClumps:
		clumps := FindCollapsedObjects(h, r.Threshold, r.MinSep)
		if clumps == nil {
			clumps = []CollapsedObject{} // an empty catalog is [], not null
		}
		art.Name = fmt.Sprintf("clumps_step%04d.json", step)
		return encodeJSON(art, ClumpsPayload{
			Step: step, Time: h.Time,
			Threshold: r.Threshold, MinSep: r.MinSep, Clumps: clumps,
		})
	case KindSnapshot, KindCheckpoint:
		data, raw, err := snapshot.EncodeSized(h, problem)
		if err != nil {
			return art, err
		}
		art.Name = fmt.Sprintf("%s_step%04d.snap", r.Kind, step)
		art.ContentType = "application/octet-stream"
		art.RawSize = raw
		art.Data = data
		return art, nil
	}
	return art, fmt.Errorf("analysis: output kind %q unknown", r.Kind)
}

// encodeImage finishes a slice/projection artifact in the request's
// format.
func (r OutputRequest) encodeImage(art Artifact, data [][]float64) (Artifact, error) {
	stem := fmt.Sprintf("%s_%s_%c_step%04d", r.Kind, r.Field, "xyz"[r.Axis], art.Step)
	var buf bytes.Buffer
	switch r.Format {
	case FormatPGM:
		if err := WritePGM(&buf, data); err != nil {
			return art, err
		}
		art.Name, art.ContentType = stem+".pgm", "image/x-portable-graymap"
	case FormatPNG:
		if err := WritePNG(&buf, data); err != nil {
			return art, err
		}
		art.Name, art.ContentType = stem+".png", "image/png"
	case FormatJSON:
		art.Name = stem + ".json"
		return encodeJSON(art, ImagePayload{
			Kind: r.Kind, Field: r.Field, Axis: r.Axis, Coord: r.Coord,
			Step: art.Step, Time: art.Time, Data: data,
		})
	default:
		return art, fmt.Errorf("analysis: output format %q not pgm|png|json", r.Format)
	}
	art.Data = buf.Bytes()
	return art, nil
}

func encodeJSON(art Artifact, v any) (Artifact, error) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return art, err
	}
	art.ContentType = "application/json"
	art.Data = append(data, '\n')
	return art, nil
}

// OutputPlan evaluates a normalized output-request list against a run's
// root-step stream: Step after every completed root step, Finish once
// the run ends (so every request yields at least its final-state
// product). Both the sim job service and the enzogo one-shot driver run
// their cadence through the same plan, so "every 5 steps" means the same
// thing on both paths.
type OutputPlan struct {
	// Requests is the normalized request list; artifact names are
	// prefixed with the index into it ("02_slice_rho_z_step0004.pgm").
	Requests []OutputRequest

	prevTime float64
	havePrev bool
	emitted  []int // last step each request was evaluated at, -1 = never
}

// NewOutputPlan normalizes and validates the requests. A nil/empty list
// yields a plan whose Step and Finish do nothing.
func NewOutputPlan(reqs []OutputRequest) (*OutputPlan, error) {
	p := &OutputPlan{
		Requests: make([]OutputRequest, len(reqs)),
		emitted:  make([]int, len(reqs)),
	}
	for i, r := range reqs {
		n, err := r.Normalize()
		if err != nil {
			return nil, fmt.Errorf("output request %d: %w", i, err)
		}
		p.Requests[i] = n
		p.emitted[i] = -1
	}
	return p, nil
}

// Prime seeds the time-cadence baseline, as if the plan had already
// observed a step at code time t. An unprimed plan never fires a time
// cadence on its first step, so a run resumed from a checkpoint primes
// its plans with the checkpoint's time: every_time cadences then continue
// from where the interrupted run left off, and a boundary crossed by the
// first post-resume step is not dropped.
func (p *OutputPlan) Prime(t float64) {
	p.prevTime, p.havePrev = t, true
}

// Step fires every request whose cadence is due after root step `step`
// (0-based), handing each evaluated artifact to emit. The first emit
// error aborts the sweep.
func (p *OutputPlan) Step(h *amr.Hierarchy, problem string, step, workers int, emit func(Artifact) error) error {
	crossed := func(interval float64) bool {
		return p.havePrev && interval > 0 &&
			math.Floor(h.Time/interval) > math.Floor(p.prevTime/interval)
	}
	for i, r := range p.Requests {
		due := (r.Every > 0 && (step+1)%r.Every == 0) || crossed(r.EveryTime)
		if !due {
			continue
		}
		if err := p.emit(h, problem, i, step, workers, emit); err != nil {
			return err
		}
	}
	p.prevTime, p.havePrev = h.Time, true
	return nil
}

// Finish evaluates every request that has not already produced its
// product for `lastStep` (the final completed root step) — the guarantee
// that a request with no cadence still yields its end-of-run product
// exactly once.
func (p *OutputPlan) Finish(h *amr.Hierarchy, problem string, lastStep, workers int, emit func(Artifact) error) error {
	if lastStep < 0 {
		lastStep = 0 // a run stopped before its first step still reports its initial state
	}
	for i := range p.Requests {
		if p.emitted[i] == lastStep {
			continue
		}
		if err := p.emit(h, problem, i, lastStep, workers, emit); err != nil {
			return err
		}
	}
	return nil
}

func (p *OutputPlan) emit(h *amr.Hierarchy, problem string, i, step, workers int, emit func(Artifact) error) error {
	art, err := p.Requests[i].Evaluate(h, problem, step, workers)
	if err != nil {
		return fmt.Errorf("output request %d (%s): %w", i, p.Requests[i].Kind, err)
	}
	art.Name = fmt.Sprintf("%02d_%s", i, art.Name)
	p.emitted[i] = step
	return emit(art)
}
