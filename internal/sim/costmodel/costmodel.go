// Package costmodel turns the perf.JobMetrics history of completed jobs
// into a cost predictor: given a problem name, its canonical knob vector
// and the nominal work unit rootn³×steps, it estimates wall-clock
// seconds, total cell updates and a confidence for a submission before
// it runs. Two predictors compete per problem — a closed-form per-op
// linear fit on work (seconds scale with cells advanced) and a
// k-nearest-neighbour average over knob space (for cliffy cost surfaces
// a line cannot follow) — and the model picks whichever has the lower
// leave-one-out held-out error, in the spirit of held-out
// model-selection consistency. State serializes deterministically so it
// can be persisted in the scheduler's Store and replicated across serve
// peers; every input is sanitized on the way in, so estimates are never
// NaN, Inf or negative regardless of history.
package costmodel

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
)

// maxSamplesPerProblem bounds the per-problem history: beyond it the
// oldest observation is dropped, so the model (and its persisted state)
// stays O(1) per problem no matter how many jobs run.
const maxSamplesPerProblem = 512

// kNeighbours is how many nearest samples the NN predictor averages.
const kNeighbours = 3

// Predictor names reported in Estimate.Predictor.
const (
	// PredictorLinear is the closed-form per-op least-squares fit of
	// seconds against work; slopes are clamped non-negative, so its
	// estimates are monotone in work by construction.
	PredictorLinear = "linear"
	// PredictorNN is the k-nearest-neighbour fallback: it averages the
	// seconds-per-work rate of the k closest samples in knob space and
	// scales by the queried work.
	PredictorNN = "nn"
	// PredictorNone means the model has no history for the problem and
	// the estimate carries zero confidence.
	PredictorNone = "none"
)

// Sample is one observed job execution: the knobs it ran with and the
// cost it actually incurred, distilled from perf.JobMetrics.
type Sample struct {
	// JobID dedupes observations: re-observing the same job replaces
	// its sample in place, which makes peer merges a plain union.
	JobID string `json:"job_id"`
	// Problem names the registered problem. Samples never inform
	// estimates across problems.
	Problem string `json:"problem"`
	// Features is the canonical knob vector (rootn, maxlevel, workers,
	// chemistry, "knob:"-prefixed extras) the NN predictor measures
	// distance in. Steps and work are deliberately excluded so that for
	// fixed knobs the NN estimate stays proportional to work.
	Features map[string]float64 `json:"features,omitempty"`
	// Work is the nominal work unit rootn³×steps the linear predictor
	// fits against.
	Work float64 `json:"work"`
	// Seconds is the observed wall-clock runtime.
	Seconds float64 `json:"seconds"`
	// Cells is the observed total cell-update count.
	Cells float64 `json:"cells,omitempty"`
	// OpSeconds is the per-operator wall-second breakdown (including
	// the "other" residual); when every sample carries one, the linear
	// predictor fits each operator separately and sums the parts.
	OpSeconds map[string]float64 `json:"op_seconds,omitempty"`
}

// Query asks for a cost estimate before a job runs.
type Query struct {
	// Problem selects which per-problem history answers the query.
	Problem string
	// Work is the nominal work unit rootn³×steps of the submission.
	Work float64
	// Features is the submission's canonical knob vector, in the same
	// space as Sample.Features.
	Features map[string]float64
}

// Estimate is a cost prediction. All fields are finite and
// non-negative regardless of what the model observed.
type Estimate struct {
	// Seconds is the predicted wall-clock runtime.
	Seconds float64 `json:"seconds"`
	// Cells is the predicted total cell updates.
	Cells float64 `json:"cells"`
	// Confidence in [0,1] grows with history size and shrinks with the
	// chosen predictor's held-out error.
	Confidence float64 `json:"confidence"`
	// Predictor names the model that produced Seconds: "linear", "nn",
	// or "none" when the problem has no history.
	Predictor string `json:"predictor"`
	// Samples is how many observations back the estimate; zero means
	// the estimate is vacuous and must not drive admission decisions.
	Samples int `json:"samples"`
}

// history is the per-problem state: the bounded sample window, each
// sample's JSON encoding (marshalled once, when the sample is stored, so
// Encode never re-marshals the window), and the lazily recomputed
// predictor selection.
type history struct {
	samples    []Sample
	encoded    [][]byte // encoded[i] is json.Marshal(samples[i])
	dirty      bool
	sinceScore int // samples changed since the last held-out scoring
	predictor  string
	looErr     float64
}

// Model accumulates samples and answers cost queries. Safe for
// concurrent use.
type Model struct {
	mu       sync.Mutex
	problems map[string]*history
}

// New returns an empty model.
func New() *Model {
	return &Model{problems: map[string]*history{}}
}

// finiteOrZero maps NaN and ±Inf to 0 so no estimate or persisted state
// can carry a non-finite value.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// nonNeg sanitizes to a finite, non-negative value.
func nonNeg(v float64) float64 {
	v = finiteOrZero(v)
	if v < 0 {
		return 0
	}
	return v
}

// validUTF8 forces a string to valid UTF-8 (invalid bytes become the
// replacement rune). json.Marshal would escape invalid bytes the same
// way, but only on the wire — the decoded string would then differ from
// the stored one and Encode would no longer be a fixed point.
func validUTF8(s string) string {
	return strings.ToValidUTF8(s, "�")
}

// sanitizeSample copies s with every numeric field finite (and the
// magnitudes that must be non-negative clamped to zero) and every
// string valid UTF-8, so samples are always JSON-marshalable, encoding
// is a fixed point, and no input can poison an estimate.
func sanitizeSample(s Sample) Sample {
	out := s
	out.JobID = validUTF8(s.JobID)
	out.Problem = validUTF8(s.Problem)
	out.Work = nonNeg(s.Work)
	out.Seconds = nonNeg(s.Seconds)
	out.Cells = nonNeg(s.Cells)
	if len(s.Features) > 0 {
		out.Features = make(map[string]float64, len(s.Features))
		for k, v := range s.Features {
			out.Features[validUTF8(k)] = finiteOrZero(v) // knobs may legitimately be negative
		}
	} else {
		out.Features = nil
	}
	if len(s.OpSeconds) > 0 {
		out.OpSeconds = make(map[string]float64, len(s.OpSeconds))
		for k, v := range s.OpSeconds {
			out.OpSeconds[validUTF8(k)] = nonNeg(v)
		}
	} else {
		out.OpSeconds = nil
	}
	return out
}

// sampleEqual reports whether two (sanitized) samples are identical, so
// idempotent re-observation (e.g. recovery backfill after a restart)
// does not dirty the model or rewrite its persisted state.
func sampleEqual(a, b Sample) bool {
	return a.JobID == b.JobID && a.Problem == b.Problem &&
		a.Work == b.Work && a.Seconds == b.Seconds && a.Cells == b.Cells &&
		maps.Equal(a.Features, b.Features) && maps.Equal(a.OpSeconds, b.OpSeconds)
}

// Observe records one completed job. Re-observing a JobID replaces its
// sample in place. It reports whether the model state changed (callers
// persist and replicate only on true).
func (m *Model) Observe(s Sample) bool {
	s = sanitizeSample(s)
	if s.Problem == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.problems[s.Problem]
	if h == nil {
		h = &history{}
		m.problems[s.Problem] = h
	}
	for i := range h.samples {
		if h.samples[i].JobID == s.JobID {
			if sampleEqual(h.samples[i], s) {
				return false
			}
			h.samples[i], h.encoded[i] = s, encodeSample(s)
			h.dirty = true
			h.sinceScore++
			return true
		}
	}
	h.add(s)
	return true
}

// encodeSample marshals one sanitized sample — every value finite, every
// string valid UTF-8, so the marshal cannot fail.
func encodeSample(s Sample) []byte {
	data, _ := json.Marshal(s)
	return data
}

// add appends a sanitized sample with its encoding, dropping the oldest
// beyond the window (the backing arrays let go of the dropped prefix at
// their next growth, so at most a window's worth lingers).
func (h *history) add(s Sample) {
	h.samples = append(h.samples, s)
	h.encoded = append(h.encoded, encodeSample(s))
	if n := len(h.samples) - maxSamplesPerProblem; n > 0 {
		h.samples, h.encoded = h.samples[n:], h.encoded[n:]
	}
	h.dirty = true
	h.sinceScore++
}

// Samples reports how many observations the model holds for problem.
func (m *Model) Samples(problem string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.problems[problem]; h != nil {
		return len(h.samples)
	}
	return 0
}

// TotalSamples reports observations held across all problems.
func (m *Model) TotalSamples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.problems {
		n += len(h.samples)
	}
	return n
}

// fitLine is the closed-form least-squares fit of y against x with the
// slope clamped non-negative (cost cannot shrink with work). When x is
// effectively constant the fit degenerates: through the origin if the
// constant is positive (work-proportional extrapolation), otherwise to
// the mean of y.
func fitLine(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	meanX, meanY := sx/n, sy/n
	denom := n*sxx - sx*sx
	if !(denom > 1e-12*math.Max(1, n*sxx)) { // also catches NaN
		if meanX > 0 {
			return meanY / meanX, 0
		}
		return 0, meanY
	}
	slope = (n*sxy - sx*sy) / denom
	if !(slope >= 0) { // clamp negative (or NaN) slopes to the mean predictor
		return 0, meanY
	}
	return slope, meanY - slope*meanX
}

// opKeys returns the sorted union of per-op keys across samples, or nil
// if any sample lacks a breakdown (then only the whole-wall fit is
// sound).
func opKeys(samples []Sample) []string {
	set := map[string]bool{}
	for _, s := range samples {
		if len(s.OpSeconds) == 0 {
			return nil
		}
		for k := range s.OpSeconds {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// linearSeconds predicts wall seconds at the given work from per-op
// linear fits (falling back to a single whole-wall fit when breakdowns
// are missing). Each fitted term is clamped non-negative, so the sum is
// monotone non-decreasing in work.
func linearSeconds(train []Sample, work float64) float64 {
	if len(train) == 0 {
		return 0
	}
	xs := make([]float64, len(train))
	ys := make([]float64, len(train))
	for i, s := range train {
		xs[i] = s.Work
	}
	if keys := opKeys(train); keys != nil {
		total := 0.0
		for _, k := range keys {
			for i, s := range train {
				ys[i] = s.OpSeconds[k]
			}
			a, b := fitLine(xs, ys)
			total += math.Max(0, a*work+b)
		}
		return total
	}
	for i, s := range train {
		ys[i] = s.Seconds
	}
	a, b := fitLine(xs, ys)
	return math.Max(0, a*work+b)
}

// workRate is a sample's seconds-per-work rate (work floored at 1 so
// zero-work histories still predict something sane).
func workRate(s Sample) float64 {
	return s.Seconds / math.Max(s.Work, 1)
}

// nnSeconds predicts wall seconds by averaging the seconds-per-work
// rate of the k nearest samples in range-normalized knob space and
// scaling by the queried work. Because distance ignores work, the
// estimate is proportional to work for fixed knobs.
func nnSeconds(train []Sample, features map[string]float64, work float64) float64 {
	if len(train) == 0 {
		return 0
	}
	dims := map[string]float64{} // dim -> max |value| (the normalization scale)
	note := func(m map[string]float64) {
		for k, v := range m {
			if a := math.Abs(finiteOrZero(v)); a > dims[k] {
				dims[k] = a
			}
		}
	}
	for _, s := range train {
		note(s.Features)
	}
	note(features)
	type neighbour struct {
		d, rate float64
		id      string
	}
	nbs := make([]neighbour, len(train))
	for i, s := range train {
		d2 := 0.0
		for k, scale := range dims {
			if scale == 0 {
				continue
			}
			diff := (s.Features[k] - finiteOrZero(features[k])) / scale
			d2 += diff * diff
		}
		nbs[i] = neighbour{d: math.Sqrt(d2), rate: workRate(s), id: s.JobID}
	}
	sort.Slice(nbs, func(i, j int) bool {
		if nbs[i].d != nbs[j].d {
			return nbs[i].d < nbs[j].d
		}
		return nbs[i].id < nbs[j].id
	})
	k := kNeighbours
	if k > len(nbs) {
		k = len(nbs)
	}
	var wsum, rsum float64
	for _, nb := range nbs[:k] {
		w := 1 / (nb.d + 1e-9)
		wsum += w
		rsum += w * nb.rate
	}
	if wsum == 0 {
		return 0
	}
	return (rsum / wsum) * math.Max(work, 1)
}

// cellsAt predicts total cell updates at the given work from the mean
// observed cells-per-work rate (predictor-independent: cell counts are
// near-deterministic in the configuration).
func cellsAt(train []Sample, work float64) float64 {
	var rate float64
	n := 0
	var mean float64
	for _, s := range train {
		mean += s.Cells
		if s.Work > 0 && s.Cells > 0 {
			rate += s.Cells / s.Work
			n++
		}
	}
	if n > 0 {
		return (rate / float64(n)) * work
	}
	if len(train) > 0 {
		return mean / float64(len(train))
	}
	return 0
}

// meanSeconds is the last-resort fallback when a predictor misbehaves
// numerically.
func meanSeconds(train []Sample) float64 {
	if len(train) == 0 {
		return 0
	}
	var sum float64
	for _, s := range train {
		sum += s.Seconds
	}
	return sum / float64(len(train))
}

// looWindow bounds how many points the leave-one-out scorer holds out:
// selection needs a representative error, not an O(n^2) sweep of the
// whole window on every refit (refits land on the scheduler's submit
// path). Only the newest looWindow samples are scored — each still
// predicted from the full remaining history.
const looWindow = 24

// looErrors computes each predictor's leave-one-out mean relative
// error: each of the newest samples is predicted from all the others
// and compared against what actually happened.
func looErrors(samples []Sample) (linErr, nnErr float64) {
	n := len(samples)
	start := 0
	if n > looWindow {
		start = n - looWindow
	}
	train := make([]Sample, 0, n-1)
	for i := start; i < n; i++ {
		train = train[:0]
		train = append(train, samples[:i]...)
		train = append(train, samples[i+1:]...)
		actual := math.Max(samples[i].Seconds, 1e-6)
		lin := linearSeconds(train, samples[i].Work)
		nn := nnSeconds(train, samples[i].Features, samples[i].Work)
		linErr += math.Abs(lin-samples[i].Seconds) / actual
		nnErr += math.Abs(nn-samples[i].Seconds) / actual
	}
	held := float64(n - start)
	return linErr / held, nnErr / held
}

// selection returns the cached (predictor, held-out error) choice,
// recomputing it only when the history changed. Below three samples
// leave-one-out is meaningless, so the linear fit wins by default with
// a pessimistic error of 1.
func (h *history) selection() (string, float64) {
	if !h.dirty {
		return h.predictor, h.looErr
	}
	// On a large history a handful of new samples cannot meaningfully
	// move the held-out error: keep the cached choice until a batch
	// accumulates, so rescoring (O(looWindow × n)) amortizes to O(n)
	// per observation on the scheduler's submit path.
	if h.predictor != "" && len(h.samples) >= 4*looWindow && h.sinceScore < looWindow {
		h.dirty = false
		return h.predictor, h.looErr
	}
	switch n := len(h.samples); {
	case n == 0:
		h.predictor, h.looErr = PredictorNone, 1
	case n < 3:
		h.predictor, h.looErr = PredictorLinear, 1
	default:
		lin, nn := looErrors(h.samples)
		if nn < lin {
			h.predictor, h.looErr = PredictorNN, nn
		} else {
			h.predictor, h.looErr = PredictorLinear, lin // ties favor the monotone fit
		}
	}
	h.looErr = nonNeg(h.looErr)
	h.dirty = false
	h.sinceScore = 0
	return h.predictor, h.looErr
}

// Estimate predicts the cost of a query. With no history for the
// problem it returns a zero estimate with Predictor "none" and
// Samples 0; callers must not reject on those.
func (m *Model) Estimate(q Query) Estimate {
	work := nonNeg(q.Work)
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.problems[q.Problem]
	if h == nil || len(h.samples) == 0 {
		return Estimate{Predictor: PredictorNone}
	}
	predictor, looErr := h.selection()
	var sec float64
	if predictor == PredictorNN {
		sec = nnSeconds(h.samples, q.Features, work)
	} else {
		sec = linearSeconds(h.samples, work)
	}
	if math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
		sec = meanSeconds(h.samples)
	}
	n := len(h.samples)
	conf := (float64(n) / float64(n+3)) / (1 + looErr)
	if conf < 0 {
		conf = 0
	} else if conf > 1 {
		conf = 1
	}
	return Estimate{
		Seconds:    nonNeg(sec),
		Cells:      nonNeg(cellsAt(h.samples, work)),
		Confidence: nonNeg(conf),
		Predictor:  predictor,
		Samples:    n,
	}
}

// persistedState is the serialized model: version plus the raw sample
// windows (predictor selection is derived, so it is not persisted).
// json.Marshal sorts map keys and Go renders floats with the shortest
// exact representation, so encoding is deterministic and round-trips
// bit-for-bit.
type persistedState struct {
	Version  int                 `json:"version"`
	Problems map[string][]Sample `json:"problems"`
}

// Encode serializes the model deterministically for Store persistence
// and peer replication: byte-for-byte json.Marshal of the persistedState
// holding every non-empty window, assembled from the per-sample
// encodings so its cost is a copy, not a marshal of the window.
func (m *Model) Encode() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.problems))
	size := len(`{"version":1,"problems":{}}`)
	for name, h := range m.problems {
		if len(h.samples) == 0 {
			continue
		}
		names = append(names, name)
		size += len(name) + 16
		for _, enc := range h.encoded {
			size += len(enc) + 1
		}
	}
	sort.Strings(names) // json.Marshal's map-key order
	buf := append(make([]byte, 0, size), `{"version":1,"problems":{`...)
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		key, _ := json.Marshal(name) // the escaping a map key gets
		buf = append(append(buf, key...), ':', '[')
		for k, enc := range m.problems[name].encoded {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, enc...)
		}
		buf = append(buf, ']')
	}
	return append(buf, "}}"...)
}

// parseState decodes and sanitizes a persisted blob.
func parseState(data []byte) (persistedState, error) {
	var ps persistedState
	if err := json.Unmarshal(data, &ps); err != nil {
		return ps, fmt.Errorf("costmodel: decode: %w", err)
	}
	clean := make(map[string][]Sample, len(ps.Problems))
	for name, ss := range ps.Problems {
		name = validUTF8(name)
		for i := range ss {
			ss[i] = sanitizeSample(ss[i])
			if ss[i].Problem == "" {
				ss[i].Problem = name
			}
		}
		clean[name] = append(clean[name], ss...)
	}
	ps.Problems = clean
	return ps, nil
}

// Decode replaces the model state with a previously Encoded blob. An
// empty blob resets the model.
func (m *Model) Decode(data []byte) error {
	if len(data) == 0 {
		m.mu.Lock()
		m.problems = map[string]*history{}
		m.mu.Unlock()
		return nil
	}
	ps, err := parseState(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.problems = map[string]*history{}
	for name, ss := range ps.Problems {
		h := &history{}
		for _, s := range ss[max(0, len(ss)-maxSamplesPerProblem):] { // only the window is kept (or encoded)
			h.add(s)
		}
		m.problems[name] = h
	}
	return nil
}

// Merge unions another model's encoded state into this one: samples
// for job IDs we have not seen are appended, existing ones are kept
// (the local observation is authoritative). It reports whether the
// state changed, so receivers persist — but never re-broadcast —
// only real updates.
func (m *Model) Merge(data []byte) (bool, error) {
	if len(data) == 0 {
		return false, nil
	}
	ps, err := parseState(data)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(ps.Problems))
	for name := range ps.Problems {
		names = append(names, name)
	}
	sort.Strings(names)
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, name := range names {
		incoming := ps.Problems[name]
		if len(incoming) == 0 {
			continue
		}
		h := m.problems[name]
		if h == nil {
			h = &history{}
			m.problems[name] = h
		}
		seen := make(map[string]bool, len(h.samples))
		for _, s := range h.samples {
			seen[s.JobID] = true
		}
		for _, s := range incoming {
			if seen[s.JobID] {
				continue
			}
			seen[s.JobID] = true
			h.add(s)
			changed = true
		}
	}
	return changed, nil
}
