package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const testHost = "Test CPU @ 1.00GHz"

// benchOut fabricates `go test -bench -benchmem -count N` output on
// testHost at GOMAXPROCS 4: one line per ns sample, each with custom
// metrics between ns/op and B/op, the way the repo's benchmarks print them.
func benchOut(allocs int, samples map[string][]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\ncpu: " + testHost + "\n")
	for name, nss := range samples {
		for _, ns := range nss {
			fmt.Fprintf(&b, "%s-4   \t     100\t  %.1f ns/op\t  920000 cells/s\t 12.5 jobs/s\t    4096 B/op\t    %d allocs/op\n", name, ns, allocs)
		}
	}
	b.WriteString("PASS\nok  \trepro\t1.0s\n")
	return b.String()
}

func five(ns float64) []float64 { return []float64{ns, ns, ns, ns, ns} }

// thisHost is a row header matching what measure reports for benchOut.
func thisHost(date string, results map[string]result) row {
	return row{Date: date, Host: testHost, NumCPU: runtime.NumCPU(), GOMAXPROCS: 4, Results: results}
}

func allocs(n int64) *int64 { return &n }

// gate writes rows as dir/BENCH.json, runs perfgate over the canned
// output and returns its exit code and stdout.
func gate(t *testing.T, dir string, rows []row, out string, args ...string) (int, string) {
	t.Helper()
	doc, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	old := runBenchCmd
	runBenchCmd = func(bench, benchtime, d string) (string, error) { return out, nil }
	defer func() { runBenchCmd = old }()
	var stdout, stderr strings.Builder
	code := run(append([]string{"-dir", dir}, args...), &stdout, &stderr)
	if code == 2 {
		t.Fatalf("operational error: %s", stderr.String())
	}
	return code, stdout.String()
}

// lineFor returns the verdict line of one benchmark.
func lineFor(t *testing.T, stdout, name string) string {
	t.Helper()
	for _, ln := range strings.Split(stdout, "\n") {
		if f := strings.Fields(ln); len(f) > 1 && f[1] == name {
			return ln
		}
	}
	t.Fatalf("no verdict line for %s in:\n%s", name, stdout)
	return ""
}

func TestGateRules(t *testing.T) {
	const k = "BenchmarkKernel/workers1"
	measured := benchOut(7, map[string][]float64{k: five(1000)})
	foreign := func(mutate func(*row)) func(row) row {
		return func(r row) row { mutate(&r); return r }
	}
	same := func(r row) row { return r }
	for _, tc := range []struct {
		name     string
		base     result
		host     func(row) row
		out      string
		wantCode int
		wantLine string // substring of k's verdict line
	}{
		{"honest baseline on the recording host", result{Ns: 1040}, same, measured, 0, "ok"},
		{"doctored ns baseline on the recording host", result{Ns: 100}, same, measured, 1, "FAIL"},
		{"improvement is flagged, not failed", result{Ns: 5000}, same, measured, 0, "GOOD"},
		{"doctored ns, other host", result{Ns: 100}, foreign(func(r *row) { r.Host = "AMD EPYC 7713" }), measured, 0, "ns not judged"},
		{"doctored ns, other numcpu", result{Ns: 100}, foreign(func(r *row) { r.NumCPU++ }), measured, 0, "ns not judged"},
		{"doctored ns, other gomaxprocs", result{Ns: 100}, foreign(func(r *row) { r.GOMAXPROCS = 1 }), measured, 0, "ns not judged"},
		{"allocs equal", result{Ns: 1000, Allocs: allocs(7)}, same, measured, 0, "7 allocs/op vs 7"},
		{"allocs +1 on the recording host", result{Ns: 1000, Allocs: allocs(6)}, same, measured, 1, "7 allocs/op vs 6"},
		{"allocs +1 despite a host mismatch", result{Ns: 1000, Allocs: allocs(6)}, foreign(func(r *row) { r.Host = "AMD EPYC 7713" }), measured, 1, "FAIL"},
		{"allocs -1 is a change to record too", result{Ns: 1000, Allocs: allocs(8)}, same, measured, 1, "FAIL"},
		{"no allocs in the row: never alloc-judged", result{Ns: 1000}, same, benchOut(900, map[string][]float64{k: five(1000)}), 0, "ok"},
		{"one 3x outlier in five passes on the median", result{Ns: 1000}, same,
			benchOut(7, map[string][]float64{k: {1010, 3000, 990, 1000, 1020}}), 0, "ok"},
		{"three slow runs in five do not", result{Ns: 1000}, same,
			benchOut(7, map[string][]float64{k: {1010, 3000, 3000, 1000, 3000}}), 1, "FAIL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := []row{tc.host(thisHost("2026-01-01", map[string]result{k: tc.base}))}
			code, stdout := gate(t, t.TempDir(), rows, tc.out)
			if line := lineFor(t, stdout, k); code != tc.wantCode || !strings.Contains(line, tc.wantLine) {
				t.Fatalf("exit %d, want %d; verdict line %q lacks %q\n%s", code, tc.wantCode, line, tc.wantLine, stdout)
			}
			if tc.base.Allocs == nil && strings.Contains(lineFor(t, stdout, k), "allocs/op") {
				t.Errorf("alloc verdict without an allocs baseline: %s", lineFor(t, stdout, k))
			}
		})
	}
}

// TestMeasureParsesCustomMetrics: cells/s and jobs/s sit between ns/op and
// B/op on the repo's benchmark lines; every standard unit must survive them.
func TestMeasureParsesCustomMetrics(t *testing.T) {
	got := measure(benchOut(7, map[string][]float64{"BenchmarkScalingStep64/workers2": {190123456.5, 2e8, 1.8e8}}))
	if got.Host != testHost || got.GOMAXPROCS != 4 || got.NumCPU != runtime.NumCPU() {
		t.Errorf("host line: %+v", got)
	}
	r, ok := got.Results["BenchmarkScalingStep64/workers2"]
	if !ok || r.Ns != 190123456.5 || r.Bytes != 4096 || r.Iters != 100 || r.Allocs == nil || *r.Allocs != 7 {
		t.Fatalf("parsed %+v (present %t), want the median 190123456.5 ns, 4096 B, 100 iters, 7 allocs", r, ok)
	}
	// Runs that disagree on allocs/op record none.
	mixed := strings.Replace(benchOut(7, map[string][]float64{"BenchmarkX": five(10)}), "7 allocs/op", "8 allocs/op", 1)
	if r := measure(mixed).Results["BenchmarkX"]; r.Allocs != nil || r.medianAllocs != 7 {
		t.Errorf("disagreeing runs recorded allocs %v (median %d), want none (median 7)", r.Allocs, r.medianAllocs)
	}
	// GOMAXPROCS=1 prints no suffix.
	if got := measure("BenchmarkY \t 10\t 5 ns/op\n"); got.GOMAXPROCS != 1 || got.Results["BenchmarkY"].Ns != 5 {
		t.Errorf("suffix-less line: %+v", got)
	}
}

// TestNewestOccurrenceWins: a partial newer row re-baselines only the
// names it holds; every other name still resolves to the older full row —
// including that row's host, which is what decides whether ns is judged.
func TestNewestOccurrenceWins(t *testing.T) {
	const a, b = "BenchmarkA", "BenchmarkB/x"
	old := thisHost("2026-01-01", map[string]result{a: {Ns: 100}, b: {Ns: 1000}})
	newer := thisHost("2026-02-02", map[string]result{a: {Ns: 5000}})
	newer.Host = "AMD EPYC 7713"
	out := benchOut(3, map[string][]float64{a: five(5100), b: five(1000)})
	code, stdout := gate(t, t.TempDir(), []row{old, newer}, out)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout)
	}
	if ln := lineFor(t, stdout, a); !strings.Contains(ln, "ns not judged") || !strings.Contains(ln, "2026-02-02") {
		t.Errorf("%s should resolve to the newer, foreign-host row: %s", a, ln)
	}
	if ln := lineFor(t, stdout, b); !strings.Contains(ln, "ok") || !strings.Contains(ln, "1000") {
		t.Errorf("%s should still be judged against the older row: %s", b, ln)
	}
}

// TestAbsentBenchmarkFails: a renamed or deleted benchmark must not pass
// silently — unless -only did not select it.
func TestAbsentBenchmarkFails(t *testing.T) {
	rows := []row{thisHost("2026-01-01", map[string]result{"BenchmarkA": {Ns: 100}, "BenchmarkGone/x": {Ns: 100}})}
	out := benchOut(3, map[string][]float64{"BenchmarkA": five(100)})
	code, stdout := gate(t, t.TempDir(), rows, out)
	if code != 1 || !strings.Contains(lineFor(t, stdout, "BenchmarkGone/x"), "absent") {
		t.Fatalf("exit %d, want 1 with an absent line:\n%s", code, stdout)
	}
	if code, stdout := gate(t, t.TempDir(), rows, out, "-only", "^BenchmarkA$"); code != 0 {
		t.Fatalf("-only excluding the absent name: exit %d\n%s", code, stdout)
	}
	if code, _ := gate(t, t.TempDir(), rows, out, "-only", "Gone/x"); code != 1 {
		t.Fatalf("-only selecting the absent name: exit %d, want 1", code)
	}
}

// TestBenchPatternFromHistory: with no -only, the -bench regexp is the
// anchored alternation of the baselined top-level names.
func TestBenchPatternFromHistory(t *testing.T) {
	rows := []row{thisHost("2026-01-01", map[string]result{"BenchmarkB/x": {Ns: 1}, "BenchmarkB/y": {Ns: 1}, "BenchmarkA": {Ns: 1}})}
	_, stdout := gate(t, t.TempDir(), rows, benchOut(1, map[string][]float64{"BenchmarkA": five(1), "BenchmarkB/x": five(1), "BenchmarkB/y": five(1)}))
	if want := `-bench "^(BenchmarkA|BenchmarkB)$"`; !strings.Contains(stdout, want) {
		t.Fatalf("pattern %s not in:\n%s", want, stdout)
	}
}

// TestPrintedRowRebaselines: the row perfgate prints, appended to the
// history as-is, makes an immediate re-run pass — including a benchmark
// that was not baselined before (-only's first row) and the allocs opt-in.
func TestPrintedRowRebaselines(t *testing.T) {
	dir := t.TempDir()
	rows := []row{thisHost("2026-01-01", map[string]result{"BenchmarkA": {Ns: 100, Allocs: allocs(2)}})}
	out := benchOut(3, map[string][]float64{"BenchmarkA": five(900), "BenchmarkNew/x": five(50)})
	code, stdout := gate(t, dir, rows, out)
	if code != 1 {
		t.Fatalf("slower with one more alloc: exit %d, want 1\n%s", code, stdout)
	}
	_, printed, ok := strings.Cut(stdout, "schema:\n")
	if !ok {
		t.Fatalf("no row in:\n%s", stdout)
	}
	var appended row
	if err := json.Unmarshal([]byte(printed), &appended); err != nil {
		t.Fatalf("printed row is not JSON in the row schema: %v\n%s", err, printed)
	}
	if r := appended.Results["BenchmarkNew/x"]; r.Ns != 50 || r.Allocs == nil || *r.Allocs != 3 {
		t.Errorf("new benchmark's first row: %+v", r)
	}
	code, stdout = gate(t, dir, append(rows, appended), out)
	if code != 0 || !strings.Contains(lineFor(t, stdout, "BenchmarkNew/x"), "3 allocs/op vs 3") {
		t.Fatalf("re-run against the appended row: exit %d\n%s", code, stdout)
	}
}
