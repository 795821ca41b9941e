package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 100000: 99} {
		if got := supportedTail(n); got != want {
			t.Errorf("supportedTail(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestMedianPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median(v[:5]); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if median(nil) != 0 || percentile(nil, 90) != 0 {
		t.Error("no samples must give 0")
	}
}

// TestSliceMedians: a burst that halves the speed of a minority of slices
// does not move the slice medians.
func TestSliceMedians(t *testing.T) {
	var ops []finished
	for ms := 0; ms < 10000; ms += 10 { // 100 ops/s at 10 ms each ...
		if ms >= 4000 && ms < 8000 && ms%20 != 0 {
			continue // ... but half speed and twice the latency from 4 s to 8 s
		}
		lat := 10.0
		if ms >= 4000 && ms < 8000 {
			lat = 20
		}
		ops = append(ops, finished{time.Duration(ms) * time.Millisecond, lat})
	}
	ops = append(ops, finished{10500 * time.Millisecond, 500}) // finished after the deadline
	rate, p50 := sliceMedians(ops, 10*time.Second)
	if math.Abs(rate-100) > 1e-9 || p50 != 10 {
		t.Errorf("slice medians = %g ops/s, %g ms; want 100 and 10", rate, p50)
	}
	if rate, p50 := sliceMedians(nil, time.Second); rate != 0 || p50 != 0 {
		t.Errorf("no ops: %g, %g", rate, p50)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g %v", q1, q2, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3, _ = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %g %g %g", q1, q2, q3)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 20, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerSynthAndNil(t *testing.T) {
	var off *tracer
	if id := off.begin(0, "x", ""); id != 0 {
		t.Error("a nil tracer must record nothing")
	}
	off.end(0, nil)
	off.synth(0, nil)

	tr := newTracer()
	id := tr.begin(0, "amr.Step", "")
	tr.end(id, map[string]int64{"cell_updates": 7})
	tr.spans[id-1].Start, tr.spans[id-1].End = 0, 100
	tr.synth(id, []part{{"hydro", 30}, {"gravity", 0}, {"amr.boundary", 50}})
	if len(tr.spans) != 3 || tr.spans[2].Start != 30 || tr.spans[2].End != 80 || !tr.spans[2].Synth {
		t.Fatalf("synth children wrong: %+v", tr.spans)
	}
	if got := tr.selfTimeOf("amr.Step"); got != 20 {
		t.Errorf("self time of the step = %d, want 20", got)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if lines := strings.Count(string(raw), "\n"); lines != 3 {
		t.Errorf("trace file has %d lines, want 3", lines)
	}
}

// TestSeedDrivesInputs: the same seed gives the same generated inputs, and
// another seed gives others.
func TestSeedDrivesInputs(t *testing.T) {
	for _, p := range []enginePlan{sedovPlan, collapsePlan, pancakePlan} {
		a, b, c := p.knobValue(1), p.knobValue(1), p.knobValue(2)
		if a != b || a == c {
			t.Errorf("%s knob: seed 1 → %g, %g; seed 2 → %g", p.problem, a, b, c)
		}
		if a < 0.9999*p.knobBase || a > 1.0001*p.knobBase {
			t.Errorf("%s knob %g strays from %g by enough to change the work", p.problem, a, p.knobBase)
		}
	}

	cold := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		for i := 0; i < 32; i++ {
			raw, _ := json.Marshal(coldRequest(rng, i))
			buf.Write(raw)
			buf.WriteByte('\n')
		}
		return buf.String()
	}
	if cold(1) != cold(1) || cold(1) == cold(2) {
		t.Error("serve_cold jobs must be a function of the seed")
	}
	if lines := strings.Split(strings.TrimSpace(cold(1)), "\n"); len(uniq(lines)) != len(lines) {
		t.Error("serve_cold jobs of one seed must be distinct")
	}

	h := &hotRun{jobs: make([]hotJob, hotJobs)}
	for i := range h.jobs {
		pyr := artifactRef{Name: "p", Size: 350000}
		h.jobs[i] = hotJob{arts: []artifactRef{pyr, {Name: "s", Size: 4109}}, pyramid: pyr}
	}
	hot := func(seed int64) []hotOp {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, hotJobs-1)
		ops := make([]hotOp, 2000)
		for i := range ops {
			ops[i] = h.draw(rng, zipf)
		}
		return ops
	}
	a := hot(1)
	if !reflect.DeepEqual(a, hot(1)) || reflect.DeepEqual(a, hot(2)) {
		t.Error("serve_hot requests must be a function of the seed")
	}
	kinds := make([]int, nOpKinds)
	for _, op := range a {
		kinds[op.kind]++
		if op.kind == opReadRange && op.offset+rangeBytes > op.art.Size {
			t.Fatalf("range past the end of the artifact: %+v", op)
		}
	}
	if kinds[opCacheHit] < 700 || kinds[opCacheHit] > 900 {
		t.Errorf("duplicate submissions are %d of 2000, want about 40%%", kinds[opCacheHit])
	}
	for k := opReadFull; k < nOpKinds; k++ {
		if kinds[k] < 180 || kinds[k] > 300 {
			t.Errorf("%s is %d of 2000, want about 12%%", opNames[k], kinds[k])
		}
	}
}

func uniq(v []string) map[string]bool {
	m := map[string]bool{}
	for _, s := range v {
		m[s] = true
	}
	return m
}

// TestNamesWellFormed checks every name and unit against the contract's
// character sets and limits.
func TestNamesWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not well formed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadNames {
		check(w)
		if _, ok := findWorkload(w); !ok {
			t.Errorf("workload %s is named but not implemented", w)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not well formed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if len(workloadNames) < 2 || len(workloadNames) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed the contract's limits",
			len(workloadNames), len(endToEnd), len(perLayer))
	}
}

// TestNamesMatchBenchmarkJSON: what -dry-run says a run emits is what
// BENCHMARK.json declares, in both directions.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, "workload "+w.Name)
	}
	for _, d := range bj.EndToEnd {
		declared = append(declared, "end_to_end "+d.Name+" "+d.Unit+" "+d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range bj.PerLayer {
		declared = append(declared, "per_layer "+d.Name+" "+d.Unit+" "+d.Better)
	}
	var out bytes.Buffer
	dryRun(&out)
	emitted := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !reflect.DeepEqual(emitted, declared) {
		e, d := uniq(emitted), uniq(declared)
		for n := range e {
			if !d[n] {
				t.Errorf("emitted but not declared in BENCHMARK.json: %s", n)
			}
		}
		for n := range d {
			if !e[n] {
				t.Errorf("declared in BENCHMARK.json but not emitted: %s", n)
			}
		}
		t.Error("the names or their order differ between -dry-run and BENCHMARK.json")
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	if float64(bj.RunSeconds) != defaultSeconds() || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d / paths %v do not describe this harness", bj.RunSeconds, bj.Paths)
	}
}

func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rec := &record{Workload: "sedov_amr", Traced: traced, Attempted: 3, Metrics: metrics{"wall_s": 1.5, "hydro.busy_s": 0.5}}
		line, err := rec.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("contract line keys: %s", line)
		}
		var ms map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(rec.defs()) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(ms), len(rec.defs()))
		}
		for _, d := range rec.defs() {
			if ms[d.Name].Unit != d.Unit {
				t.Errorf("%s: unit %q on the line, want %q", d.Name, ms[d.Name].Unit, d.Unit)
			}
		}
	}
}

// TestCompare drives the compare subcommand over synthetic result sets.
func TestCompare(t *testing.T) {
	write := func(dir string, scale float64, mutate func(*record)) string {
		for seed := int64(1); seed <= 5; seed++ {
			rec := &record{Workload: "sedov_amr", Attempted: 4, Metrics: metrics{}, Params: map[string]any{"steps": 30},
				Conditions: conditions{GoVersion: "go1.24", NProc: 2, Seed: seed, Seconds: 15},
				Checksums:  map[string]string{"sedov_amr": "abc"}}
			jitter := 1 + 0.002*float64(seed)
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = 10 * jitter
			}
			rec.Metrics["wall_s"] *= scale
			if mutate != nil {
				mutate(rec)
			}
			raw, _ := json.Marshal(results{Runs: []*record{rec}})
			if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('0'+seed))+".json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	base := write(t.TempDir(), 1, nil)
	if err := compare(base, write(t.TempDir(), 1.02, nil)); err != nil {
		t.Errorf("2%% slower must pass a 10%% bound: %v", err)
	}
	if err := compare(base, write(t.TempDir(), 1.5, nil)); err == nil {
		t.Error("50% slower must be reported as regressed")
	}
	if err := compare(base, write(t.TempDir(), 1, func(r *record) { r.Checksums["sedov_amr"] = "xyz" })); err == nil {
		t.Error("differing checksums must fail the comparison")
	}
	if err := compare(base, write(t.TempDir(), 1, func(r *record) { r.Failed = 1 })); err == nil {
		t.Error("a higher failed share must fail the comparison")
	}
	if err := compare(base, write(t.TempDir(), 1, func(r *record) { r.Conditions.NProc = 8 })); err == nil {
		t.Error("differing measurement conditions must be refused")
	}
	noisy := write(t.TempDir(), 1, func(r *record) { r.Metrics["wall_s"] *= 1 + 0.2*float64(r.Conditions.Seed) })
	if err := compare(base, noisy); err != nil {
		t.Errorf("a spread wider than the bound is unresolved, not regressed: %v", err)
	}
}
