package costmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// linearHistory observes n samples of a genuinely linear cost surface
// seconds = rate*work + base at fixed knobs, with work spread over a
// wide range so the fit is well conditioned.
func linearHistory(m *Model, n int, rate, base float64) {
	feats := map[string]float64{"rootn": 16, "maxlevel": 2, "workers": 2}
	for i := 0; i < n; i++ {
		work := float64((i + 1) * 1000)
		m.Observe(Sample{
			JobID:    fmt.Sprintf("lin-%d", i),
			Problem:  "sedov",
			Features: feats,
			Work:     work,
			Seconds:  rate*work + base,
			Cells:    work * 1.5,
		})
	}
}

// TestLinearSelectedOnLinearData: on a noiseless linear cost surface the
// held-out selection must pick the linear fit, and its estimate must be
// essentially exact — including an extrapolation beyond the history.
func TestLinearSelectedOnLinearData(t *testing.T) {
	m := New()
	const rate, base = 2e-4, 0.05
	linearHistory(m, 8, rate, base)

	feats := map[string]float64{"rootn": 16, "maxlevel": 2, "workers": 2}
	for _, work := range []float64{1500, 4500, 50000} { // interpolate and extrapolate
		est := m.Estimate(Query{Problem: "sedov", Work: work, Features: feats})
		if est.Predictor != PredictorLinear {
			t.Fatalf("work %g: predictor %q, want linear", work, est.Predictor)
		}
		want := rate*work + base
		if rel := abs(est.Seconds-want) / want; rel > 0.02 {
			t.Fatalf("work %g: estimated %g seconds, want %g (rel err %g)", work, est.Seconds, want, rel)
		}
		if est.Samples != 8 {
			t.Fatalf("samples %d, want 8", est.Samples)
		}
		if est.Confidence <= 0.4 {
			t.Fatalf("confidence %g on a perfect fit, want > 0.4", est.Confidence)
		}
		if wantCells := 1.5 * work; abs(est.Cells-wantCells)/wantCells > 0.02 {
			t.Fatalf("work %g: estimated %g cells, want %g", work, est.Cells, wantCells)
		}
	}

	// The untrained problem answers with a vacuous estimate.
	none := m.Estimate(Query{Problem: "kh", Work: 1000})
	if none.Predictor != PredictorNone || none.Samples != 0 || none.Seconds != 0 {
		t.Fatalf("untrained problem: %+v", none)
	}
}

// TestNNSelectedOnCliffyData: at constant work, a knob flips the cost by
// 100x — a surface no line over work can follow. Held-out selection must
// pick the neighbour predictor, and its estimates must land on the right
// side of the cliff.
func TestNNSelectedOnCliffyData(t *testing.T) {
	m := New()
	for i := 0; i < 4; i++ {
		m.Observe(Sample{
			JobID: fmt.Sprintf("lo-%d", i), Problem: "sedov",
			Features: map[string]float64{"rootn": 16, "knob:cliff": 0},
			Work:     1000, Seconds: 1,
		})
		m.Observe(Sample{
			JobID: fmt.Sprintf("hi-%d", i), Problem: "sedov",
			Features: map[string]float64{"rootn": 16, "knob:cliff": 1},
			Work:     1000, Seconds: 100,
		})
	}
	lo := m.Estimate(Query{Problem: "sedov", Work: 1000, Features: map[string]float64{"rootn": 16, "knob:cliff": 0}})
	hi := m.Estimate(Query{Problem: "sedov", Work: 1000, Features: map[string]float64{"rootn": 16, "knob:cliff": 1}})
	if lo.Predictor != PredictorNN || hi.Predictor != PredictorNN {
		t.Fatalf("predictors %q/%q, want nn on a cliffy surface", lo.Predictor, hi.Predictor)
	}
	if abs(lo.Seconds-1) > 0.05 || abs(hi.Seconds-100) > 5 {
		t.Fatalf("cliff sides estimated %g / %g, want ~1 / ~100", lo.Seconds, hi.Seconds)
	}
}

// TestEstimateMonotoneInWork is the property check: for fixed knobs, the
// estimated seconds must be non-decreasing in work (rootn³×steps), under
// whichever predictor the history selects.
func TestEstimateMonotoneInWork(t *testing.T) {
	histories := map[string]func(m *Model){
		"linear": func(m *Model) { linearHistory(m, 8, 1e-4, 0.2) },
		"cliffy": func(m *Model) {
			for i := 0; i < 6; i++ {
				v := float64(i % 2)
				m.Observe(Sample{
					JobID: fmt.Sprintf("c-%d", i), Problem: "sedov",
					Features: map[string]float64{"knob:cliff": v},
					Work:     500, Seconds: 1 + 99*v,
				})
			}
		},
		"tiny": func(m *Model) {
			m.Observe(Sample{JobID: "only", Problem: "sedov", Work: 100, Seconds: 3})
		},
		"zero-work": func(m *Model) {
			for i := 0; i < 4; i++ {
				m.Observe(Sample{JobID: fmt.Sprintf("z-%d", i), Problem: "sedov", Work: 0, Seconds: 2})
			}
		},
	}
	feats := map[string]float64{"rootn": 16, "maxlevel": 2, "knob:cliff": 1}
	for name, fill := range histories {
		m := New()
		fill(m)
		prev := -1.0
		for work := 0.0; work <= 1e9; work = work*4 + 100 {
			est := m.Estimate(Query{Problem: "sedov", Work: work, Features: feats})
			if est.Seconds < prev {
				t.Fatalf("%s history (predictor %s): estimate dropped from %g to %g as work rose to %g",
					name, est.Predictor, prev, est.Seconds, work)
			}
			prev = est.Seconds
		}
	}
}

// TestObserveDedupeAndCap: re-observing a JobID replaces in place (and
// an identical re-observation reports no change, so recovery backfill
// does not rewrite persisted state); the window stays bounded.
func TestObserveDedupeAndCap(t *testing.T) {
	m := New()
	s := Sample{JobID: "j1", Problem: "sedov", Work: 100, Seconds: 2}
	if !m.Observe(s) {
		t.Fatal("first observation reported no change")
	}
	if m.Observe(s) {
		t.Fatal("identical re-observation reported a change")
	}
	s.Seconds = 3
	if !m.Observe(s) {
		t.Fatal("updated re-observation reported no change")
	}
	if n := m.Samples("sedov"); n != 1 {
		t.Fatalf("%d samples after re-observation, want 1", n)
	}

	for i := 0; i < maxSamplesPerProblem+50; i++ {
		m.Observe(Sample{JobID: fmt.Sprintf("cap-%d", i), Problem: "sedov", Work: float64(i), Seconds: 1})
	}
	if n := m.Samples("sedov"); n != maxSamplesPerProblem {
		t.Fatalf("window holds %d samples, want the %d cap", n, maxSamplesPerProblem)
	}
	if m.TotalSamples() != maxSamplesPerProblem {
		t.Fatalf("TotalSamples %d, want %d", m.TotalSamples(), maxSamplesPerProblem)
	}
}

// TestMergeConvergence: merging two models' encoded states in either
// direction converges on the union sample set; samples already held
// locally are never replaced by a peer's copy.
func TestMergeConvergence(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 5; i++ {
		a.Observe(Sample{JobID: fmt.Sprintf("a-%d", i), Problem: "sedov", Work: float64(100 * (i + 1)), Seconds: float64(i + 1)})
		b.Observe(Sample{JobID: fmt.Sprintf("b-%d", i), Problem: "kh", Work: float64(100 * (i + 1)), Seconds: float64(2 * (i + 1))})
	}
	// A conflicting sample: both sides know job "shared" with different
	// numbers. Each side must keep its own.
	a.Observe(Sample{JobID: "shared", Problem: "sedov", Work: 50, Seconds: 7})
	b.Observe(Sample{JobID: "shared", Problem: "sedov", Work: 50, Seconds: 9})

	if changed, err := a.Merge(b.Encode()); err != nil || !changed {
		t.Fatalf("a<-b merge: changed=%v err=%v", changed, err)
	}
	if changed, err := b.Merge(a.Encode()); err != nil || !changed {
		t.Fatalf("b<-a merge: changed=%v err=%v", changed, err)
	}
	if a.TotalSamples() != 11 || b.TotalSamples() != 11 {
		t.Fatalf("after cross-merge: a=%d b=%d samples, want 11 each", a.TotalSamples(), b.TotalSamples())
	}
	// Idempotence: a second merge of the same state changes nothing.
	if changed, err := a.Merge(b.Encode()); err != nil || changed {
		t.Fatalf("repeat merge: changed=%v err=%v, want no change", changed, err)
	}
	// Local samples win conflicts: a's "shared" stayed 7 seconds.
	found := false
	for _, s := range a.problems["sedov"].samples {
		if s.JobID == "shared" {
			found = true
			if s.Seconds != 7 {
				t.Fatalf("merge replaced the local sample: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("shared sample vanished in merge")
	}
}

// TestEncodeDeterministic: Encode→Decode→Encode is bit-for-bit stable,
// so persisted state and peer broadcasts never churn without a real
// change.
func TestEncodeDeterministic(t *testing.T) {
	m := New()
	linearHistory(m, 6, 3e-5, 0.4)
	m.Observe(Sample{JobID: "x", Problem: "kh", Work: 10, Seconds: 0.25,
		OpSeconds: map[string]float64{"hydro": 0.2, "other": 0.05}})
	first := m.Encode()
	m2 := New()
	if err := m2.Decode(first); err != nil {
		t.Fatal(err)
	}
	second := m2.Encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("Encode→Decode→Encode drifted:\n%s\nvs\n%s", first, second)
	}
	// Decoding an empty blob resets the model.
	if err := m2.Decode(nil); err != nil {
		t.Fatal(err)
	}
	if m2.TotalSamples() != 0 {
		t.Fatalf("decode(nil) left %d samples", m2.TotalSamples())
	}
}

// ReferenceEncode is the encoding Encode must reproduce byte-for-byte:
// one json.Marshal of the whole persisted state, re-marshalling every
// sample — what Encode itself did before samples cached their bytes.
// Exported for the external fuzz test.
func ReferenceEncode(m *Model) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := persistedState{Version: 1, Problems: map[string][]Sample{}}
	for name, h := range m.problems {
		if len(h.samples) > 0 {
			ps.Problems[name] = h.samples
		}
	}
	data, err := json.Marshal(ps)
	if err != nil {
		panic(err)
	}
	return data
}

// TestEncodeMatchesReference: assembling cached per-sample bytes yields
// exactly the reference marshal — on an empty model, on a full
// 512-sample window of three problems (names that need JSON escaping,
// every optional field present and absent, in-place replacement, window
// overflow), and after Decode and Merge rebuilt the cache.
func TestEncodeMatchesReference(t *testing.T) {
	check := func(what string, m *Model) {
		t.Helper()
		if got, want := m.Encode(), ReferenceEncode(m); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode differs from json.Marshal reference:\n%.300s\nvs\n%.300s", what, got, want)
		}
	}
	m := New()
	check("empty model", m)
	if got := string(m.Encode()); got != `{"version":1,"problems":{}}` {
		t.Fatalf("empty model encodes as %s", got)
	}
	problems := []string{"sedov", "a<b>&\"q\"\u2028\\", "zoom"}
	for i := 0; i < maxSamplesPerProblem+40; i++ {
		for _, p := range problems {
			s := Sample{JobID: fmt.Sprintf("%s-%d", p, i), Problem: p, Work: float64(i) * 512, Seconds: 1e-7 * float64(i*i+1)}
			if i%2 == 0 {
				s.Features = map[string]float64{"rootn": 16, "knob:<e0>": -float64(i) / 3, "workers": 2}
				s.Cells = float64(i) * 1e9
			}
			if i%3 == 0 {
				s.OpSeconds = map[string]float64{"hydro": 0.1 / float64(i+1), "other": 1e-21}
			}
			m.Observe(s)
		}
	}
	for _, p := range problems {
		if n := m.Samples(p); n != maxSamplesPerProblem {
			t.Fatalf("%q holds %d samples, want a full window", p, n)
		}
	}
	check("full window", m)
	m.Observe(Sample{JobID: "zoom-300", Problem: "zoom", Work: 1, Seconds: 99}) // replace in place
	check("after replacement", m)

	decoded, merged := New(), New()
	if err := decoded.Decode(m.Encode()); err != nil {
		t.Fatal(err)
	}
	check("after Decode", decoded)
	if !bytes.Equal(decoded.Encode(), m.Encode()) {
		t.Fatal("Decode→Encode is not a fixed point on a full window")
	}
	merged.Observe(Sample{JobID: "local", Problem: "sedov", Work: 5, Seconds: 5})
	if changed, err := merged.Merge(m.Encode()); err != nil || !changed {
		t.Fatalf("merge: changed=%v err=%v", changed, err)
	}
	check("after Merge", merged)
}

// TestParentStateRoundTrips: a costmodel.json written by the commit
// before samples cached their encoding (five real jobs through `enzogo
// serve -data`) decodes and re-encodes to the same bytes.
func TestParentStateRoundTrips(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_costmodel.json")
	if err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.Decode(want); err != nil {
		t.Fatal(err)
	}
	if m.TotalSamples() != 5 {
		t.Fatalf("fixture decoded to %d samples, want 5", m.TotalSamples())
	}
	if got := m.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("parent-written state re-encodes differently:\n%s\nvs\n%s", got, want)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
