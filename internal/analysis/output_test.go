package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestOutputRequestNormalizeDefaults(t *testing.T) {
	r, err := OutputRequest{Kind: KindProjection}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Field != "rho" || r.N != 64 || r.NSamp != 64 || r.Format != FormatPGM || r.Coord != 0 {
		t.Fatalf("projection defaults wrong: %+v", r)
	}
	r, err = OutputRequest{Kind: KindSlice}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Coord != 0.5 || r.NSamp != 0 {
		t.Fatalf("slice defaults wrong: %+v", r)
	}
	// Knobs foreign to the kind are zeroed so sparse and fully spelled
	// requests share one canonical form.
	r, err = OutputRequest{Kind: KindProfile, Field: "rho", Axis: 2, Format: "png", Threshold: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Field != "" || r.Axis != 0 || r.Format != "" || r.Threshold != 0 || r.N != 24 {
		t.Fatalf("profile normalization kept foreign knobs: %+v", r)
	}
	want, _ := OutputRequest{Kind: KindProfile}.Normalize()
	if r.Canonical() != want.Canonical() {
		t.Fatalf("canonical forms differ:\n%s\n%s", r.Canonical(), want.Canonical())
	}
	// every_time -0 is the disabled cadence 0, spelled differently.
	r, err = OutputRequest{Kind: KindProfile, EveryTime: math.Copysign(0, -1)}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Canonical() != want.Canonical() {
		t.Fatalf("every_time -0 has its own canonical form:\n%s\n%s", r.Canonical(), want.Canonical())
	}
}

func TestOutputRequestNormalizeRejects(t *testing.T) {
	bad := []OutputRequest{
		{Kind: "spectrogram"},
		{Kind: "checkpoint", Every: 2}, // the service's cadence is a snapshot request
		{Kind: KindSlice, Field: "entropy"},
		{Kind: KindSlice, Axis: 3},
		{Kind: KindSlice, Coord: 1.5},
		{Kind: KindSlice, Coord: math.NaN()},
		{Kind: KindClumps, MinSep: math.NaN()},
		{Kind: KindSlice, N: 2},
		{Kind: KindSlice, N: 1 << 20},
		{Kind: KindSlice, Format: "tiff"},
		{Kind: KindProjection, NSamp: -1},
		{Kind: KindClumps, MinSep: 2},
		{Kind: KindSnapshot, Every: -1},
		{Kind: KindSnapshot, EveryTime: -0.5},
	}
	for _, r := range bad {
		if _, err := r.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) did not fail", r)
		}
	}
}

func TestParseOutputRequest(t *testing.T) {
	r, err := ParseOutputRequest("projection,field=temp,axis=1,n=128,nsamp=64,every=5,format=png")
	if err != nil {
		t.Fatal(err)
	}
	want := OutputRequest{Kind: KindProjection, Field: "temp", Axis: 1, N: 128, NSamp: 64, Every: 5, Format: "png"}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
	r, err = ParseOutputRequest("clumps,threshold=50,minsep=0.1,everytime=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if r.Threshold != 50 || r.MinSep != 0.1 || r.EveryTime != 0.25 {
		t.Fatalf("parsed %+v", r)
	}
	for _, spec := range []string{"", "slice,axis", "slice,axis=z", "slice,zoom=2"} {
		if _, err := ParseOutputRequest(spec); err == nil {
			t.Errorf("ParseOutputRequest(%q) did not fail", spec)
		}
	}
}

// FuzzParseOutputRequest fuzzes the -output spec pipeline: parsing never
// panics, and every spec that parses and normalizes has finite float
// knobs, normalizes to a fixed point, and keeps its canonical form across
// the JSON round trip a job request takes to a server.
func FuzzParseOutputRequest(f *testing.F) {
	for _, seed := range []string{
		"projection,field=rho,axis=2,n=128,every=5", "slice,field=temp,coord=0.25,format=png",
		"profile,n=32", "clumps,threshold=50,minsep=0.1", "snapshot,every=10",
		"pyramid,n=256,nsamp=8", "slice,coord=-0", "projection,everytime=1e-3",
		"", ",", "slice,axis", "slice,n=x", "hologram",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		parsed, err := ParseOutputRequest(spec)
		if err != nil {
			return
		}
		r, err := parsed.Normalize()
		if err != nil {
			return
		}
		for name, v := range map[string]float64{"coord": r.Coord, "everytime": r.EveryTime, "threshold": r.Threshold, "minsep": r.MinSep} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q normalized with %s=%v", spec, name, v)
			}
		}
		again, err := r.Normalize()
		if err != nil || again != r {
			t.Fatalf("%q: Normalize is not idempotent: %+v -> %+v (%v)", spec, r, again, err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		var back OutputRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%q: %s does not decode: %v", spec, raw, err)
		}
		if back.Canonical() != r.Canonical() {
			t.Fatalf("%q: canonical form %s became %s across JSON", spec, r.Canonical(), back.Canonical())
		}
	})
}

func TestCanonicalOutputsOrderMatters(t *testing.T) {
	a, _ := OutputRequest{Kind: KindSlice}.Normalize()
	b, _ := OutputRequest{Kind: KindProfile}.Normalize()
	if CanonicalOutputs([]OutputRequest{a, b}) == CanonicalOutputs([]OutputRequest{b, a}) {
		t.Fatal("output order must be part of the canonical identity")
	}
	if CanonicalOutputs(nil) != "[]" {
		t.Fatalf("empty canonical %q", CanonicalOutputs(nil))
	}
}

// TestOutputPlanCadence drives a plan through a fake run and checks the
// step/time cadences and the final-product guarantee.
func TestOutputPlanCadence(t *testing.T) {
	h := buildTestHierarchy(t)
	plan, err := NewOutputPlan([]OutputRequest{
		{Kind: KindSlice, N: 8, Every: 2},                // steps 1, 3, ... plus final
		{Kind: KindProfile, N: 4},                        // final only
		{Kind: KindClumps, Threshold: 5, EveryTime: 0.5}, // every 0.5 code time
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	emit := func(a Artifact) error {
		got = append(got, a.Name)
		return nil
	}
	// 5 fake root steps advancing time by 0.3 each: the 0.5 boundary is
	// crossed after steps 1, 2 (0.9→1.2? no: floors 0,1,1,2,2) — crossings
	// at t=0.6 (step 1), t=1.2 (step 3), and t=1.5 (step 4).
	for step := 0; step < 5; step++ {
		h.Time = float64(step+1) * 0.3
		if err := plan.Step(h, "test", step, 1, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := plan.Finish(h, "test", 4, 1, emit); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"00_slice_rho_x_step0001.pgm",
		"02_clumps_step0001.json", // t: 0.3 -> 0.6 crosses 0.5
		"00_slice_rho_x_step0003.pgm",
		"02_clumps_step0003.json",     // t: 0.9 -> 1.2 crosses 1.0
		"02_clumps_step0004.json",     // t: 1.2 -> 1.5 crosses 1.5's floor? 1.5/0.5=3 > 2
		"00_slice_rho_x_step0004.pgm", // final
		"01_profile_step0004.json",    // final
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("plan emitted\n%v\nwant\n%v", got, want)
	}
}

func TestOutputPlanFinishAfterZeroSteps(t *testing.T) {
	h := buildTestHierarchy(t)
	plan, err := NewOutputPlan([]OutputRequest{{Kind: KindSlice, N: 8}})
	if err != nil {
		t.Fatal(err)
	}
	var got []Artifact
	if err := plan.Finish(h, "test", -1, 1, func(a Artifact) error { got = append(got, a); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Step != 0 {
		t.Fatalf("finish after zero steps: %+v", got)
	}
}

func TestEvaluateImageFormats(t *testing.T) {
	h := buildTestHierarchy(t)
	for format, wantPrefix := range map[string][]byte{
		FormatPGM: []byte("P5\n"),
		FormatPNG: {0x89, 'P', 'N', 'G'},
	} {
		r, err := OutputRequest{Kind: KindSlice, N: 16, Format: format}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Evaluate(h, "test", 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(a.Data, wantPrefix) {
			t.Fatalf("%s artifact starts %q", format, a.Data[:8])
		}
		if a.Step != 3 || a.Kind != KindSlice || a.Field != "rho" {
			t.Fatalf("bad artifact meta %+v", a)
		}
	}
	r, _ := OutputRequest{Kind: KindProjection, N: 8, Format: FormatJSON}.Normalize()
	a, err := r.Evaluate(h, "test", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var payload ImagePayload
	if err := json.Unmarshal(a.Data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != KindProjection || len(payload.Data) != 8 || len(payload.Data[0]) != 8 {
		t.Fatalf("bad image payload %+v", payload)
	}
}

// TestEvaluateSnapshotRoundTrips loads the snapshot product back and
// checks it reproduces the hierarchy it was derived from.
func TestEvaluateSnapshotRoundTrips(t *testing.T) {
	h := buildTestHierarchy(t)
	r, _ := OutputRequest{Kind: KindSnapshot}.Normalize()
	a, err := r.Evaluate(h, "clumptest", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h2, problem, err := snapshot.Read(bytes.NewReader(a.Data))
	if err != nil {
		t.Fatal(err)
	}
	if problem != "clumptest" {
		t.Fatalf("problem %q", problem)
	}
	if h2.NumGrids() != h.NumGrids() || h2.ChecksumHex() != h.ChecksumHex() {
		t.Fatalf("snapshot artifact does not reproduce the hierarchy: %s vs %s",
			h2.ChecksumHex(), h.ChecksumHex())
	}
}

// TestEvaluateCheckpointKind: a restart checkpoint is a snapshot request
// on a step cadence (the request the job service's checkpoint plan
// makes), evaluated to a snapshot_* product with the compression
// accounting (RawSize) filled in that reproduces the hierarchy. The
// former distinct "checkpoint" kind is an unknown kind.
func TestEvaluateCheckpointKind(t *testing.T) {
	if _, err := (OutputRequest{Kind: "checkpoint", Every: 3}).Normalize(); err == nil {
		t.Fatal(`kind "checkpoint" accepted; a checkpoint is a snapshot request`)
	}
	h := buildTestHierarchy(t)
	r, err := OutputRequest{Kind: KindSnapshot, Every: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Evaluate(h, "ckpttest", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "snapshot_step0007.snap" {
		t.Fatalf("checkpoint artifact name %q", a.Name)
	}
	if a.RawSize <= int64(len(a.Data)) {
		t.Fatalf("RawSize %d should exceed compressed size %d", a.RawSize, len(a.Data))
	}
	h2, problem, err := snapshot.Read(bytes.NewReader(a.Data))
	if err != nil {
		t.Fatal(err)
	}
	if problem != "ckpttest" || h2.ChecksumHex() != h.ChecksumHex() {
		t.Fatalf("checkpoint does not reproduce the hierarchy")
	}
}

func TestEvaluateClumpsCatalog(t *testing.T) {
	h := buildTestHierarchy(t)
	r, _ := OutputRequest{Kind: KindClumps, Threshold: 5, MinSep: 0.2}.Normalize()
	a, err := r.Evaluate(h, "test", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var payload ClumpsPayload
	if err := json.Unmarshal(a.Data, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Clumps) != 1 {
		t.Fatalf("catalog %+v, want the single central clump", payload)
	}
	// An empty catalog must encode as [], not null.
	r, _ = OutputRequest{Kind: KindClumps, Threshold: 1e9}.Normalize()
	a, _ = r.Evaluate(h, "test", 2, 1)
	if !bytes.Contains(a.Data, []byte(`"clumps": []`)) {
		t.Fatalf("empty catalog payload: %s", a.Data)
	}
}
