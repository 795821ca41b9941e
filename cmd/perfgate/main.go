// Command perfgate is the performance-regression gate over BENCH.json,
// the repository's one append-only micro-benchmark history (schema and
// workflow: README "Benchmark baselines & the perf gate"). A benchmark's
// baseline is its newest occurrence scanning rows newest to oldest, and
// the history is the gate list: perfgate runs every baselined benchmark
// (or -only, verbatim as the -bench regexp — also how a new benchmark
// gets its first row) five times in one `go test`, takes each name's
// median, and judges
//
//   - ns/op against -tol, only when the baseline row's host, numcpu and
//     gomaxprocs are this machine's; otherwise "ns not judged";
//   - allocs/op, on any host: it must equal the baseline exactly. A row
//     carries allocs only for a benchmark whose five recording runs
//     agreed, so the field's presence is the opt-in;
//   - presence: a baselined benchmark absent from the output fails.
//
// It ends by printing the measured row in the file's schema, ready to
// append.
//
//	perfgate [-tol 0.15] [-benchtime 1s] [-only regexp] [-dir .]
//
// Exit codes: 0 pass, 1 regression, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one benchmark's entry in a row: medians of the recording runs.
type result struct {
	Ns     float64 `json:"ns"`
	Allocs *int64  `json:"allocs,omitempty"` // present only when every run agreed
	Bytes  float64 `json:"bytes"`
	Iters  int     `json:"iters"`

	medianAllocs int64 // of this measurement, agreed or not; never stored
}

// row is one BENCH.json entry; Results is keyed by the benchmark path
// exactly as `go test` prints it, less the -GOMAXPROCS suffix.
type row struct {
	Date       string            `json:"date"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	Host       string            `json:"host"`
	NumCPU     int               `json:"numcpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Note       string            `json:"note"`
	Results    map[string]result `json:"results"`
}

// write prints the row as JSON, one benchmark per line.
func (r *row) write(w io.Writer) {
	js := func(v any) string { b, _ := json.Marshal(v); return string(b) } // strings, numbers, results: cannot fail
	var lines []string
	for _, name := range slices.Sorted(maps.Keys(r.Results)) {
		lines = append(lines, "    "+js(name)+": "+js(r.Results[name]))
	}
	fmt.Fprintf(w, "{\n  \"date\": %s, \"commit\": %s, \"go\": %s,\n  \"host\": %s, \"numcpu\": %d, \"gomaxprocs\": %d,\n  \"note\": %s,\n  \"results\": {\n%s\n  }\n}\n",
		js(r.Date), js(r.Commit), js(r.Go), js(r.Host), r.NumCPU, r.GOMAXPROCS, js(r.Note), strings.Join(lines, ",\n"))
}

// loadBaselines reads the history (a JSON array of rows, oldest first) and
// resolves every benchmark name to the newest row holding it.
func loadBaselines(path string) (map[string]*row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []*row
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := map[string]*row{}
	for _, r := range slices.Backward(rows) {
		for name := range r.Results {
			if base[name] == nil {
				base[name] = r
			}
		}
	}
	return base, nil
}

// measure reduces `go test -bench -benchmem -count N` output to a row: per
// name the median ns/op, B/op and iteration count, and allocs/op when all
// N runs agreed; host from the "cpu:" header, gomaxprocs from the -N name
// suffix (go test omits it at 1). Custom metrics are parsed and ignored.
func measure(out string) *row {
	r := &row{Host: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: 1, Results: map[string]result{}}
	runs := map[string]map[string][]float64{} // name -> unit -> one sample per run
	for _, ln := range strings.Split(out, "\n") {
		if cpu, ok := strings.CutPrefix(ln, "cpu: "); ok {
			r.Host = strings.TrimSpace(cpu)
			continue
		}
		f := strings.Fields(ln)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name, r.GOMAXPROCS = name[:i], procs
			}
		}
		if runs[name] == nil {
			runs[name] = map[string][]float64{}
		}
		runs[name]["iters"] = append(runs[name]["iters"], float64(iters))
		for i := 2; i+1 < len(f); i += 2 { // value-unit pairs
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				runs[name][f[i+1]] = append(runs[name][f[i+1]], v)
			}
		}
	}
	for name, s := range runs {
		res := result{Ns: median(s["ns/op"]), Bytes: median(s["B/op"]), Iters: int(median(s["iters"]))}
		if a := s["allocs/op"]; len(a) > 0 {
			res.medianAllocs = int64(median(a))
			if slices.Min(a) == slices.Max(a) {
				res.Allocs = &res.medianAllocs
			}
		}
		r.Results[name] = res
	}
	return r
}

// median returns the middle of xs (the upper middle of an even count), or
// 0 for none; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// benchSelects reports whether `go test -bench pattern` runs the named
// benchmark: the pattern is split at "/" and each element must match the
// name's element at its level.
func benchSelects(pattern, name string) bool {
	elems := strings.Split(name, "/")
	for i, p := range strings.Split(pattern, "/") {
		if i < len(elems) {
			if ok, err := regexp.MatchString(p, elems[i]); err != nil || !ok {
				return false
			}
		}
	}
	return true
}

// runBenchCmd runs the selected benchmarks of both benchmark packages
// five times and returns the combined output. A variable so tests can
// substitute canned output.
var runBenchCmd = func(bench, benchtime, dir string) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-count", "5"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", append(args, ".", "./internal/sim")...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0.15, "relative ns/op tolerance before a change is judged")
	benchtime := fs.String("benchtime", "", "go test -benchtime value (empty = go default)")
	only := fs.String("only", "", "go test -bench regexp to run instead of every baselined benchmark")
	dir := fs.String("dir", ".", "repo root holding BENCH.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base, err := loadBaselines(filepath.Join(*dir, "BENCH.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 2
	}
	pattern := *only
	if pattern == "" {
		var tops []string
		for _, name := range slices.Sorted(maps.Keys(base)) {
			top, _, _ := strings.Cut(name, "/")
			tops = append(tops, regexp.QuoteMeta(top))
		}
		pattern = "^(" + strings.Join(slices.Compact(tops), "|") + ")$"
	}
	fmt.Fprintf(stdout, "perfgate: go test -bench %q -benchmem -count 5 . ./internal/sim\n", pattern)
	out, err := runBenchCmd(pattern, *benchtime, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: bench run failed: %v\n%s", err, out)
		return 2
	}
	got := measure(out)
	got.Date = time.Now().UTC().Format(time.DateOnly)
	got.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
	if rev, err := exec.Command("git", "-C", *dir, "describe", "--always", "--dirty").Output(); err == nil {
		got.Commit = strings.TrimSpace(string(rev))
	}
	fmt.Fprintf(stdout, "perfgate: host=%q numcpu=%d gomaxprocs=%d %s tol=%.0f%%\n",
		got.Host, got.NumCPU, got.GOMAXPROCS, got.Go, *tol*100)

	failed := false
	for _, name := range slices.Sorted(maps.Keys(base)) {
		blRow := base[name]
		bl := blRow.Results[name]
		m, ran := got.Results[name]
		if !ran {
			if benchSelects(pattern, name) {
				failed = true
				fmt.Fprintf(stdout, "  FAIL  %-46s baselined but absent from bench output (renamed or deleted?)\n", name)
			}
			continue
		}
		verdict := "ok  "
		detail := fmt.Sprintf("%12.0f ns/op vs %12.0f (%+.1f%%)", m.Ns, bl.Ns, (m.Ns/bl.Ns-1)*100)
		switch {
		case got.Host != blRow.Host || got.NumCPU != blRow.NumCPU || got.GOMAXPROCS != blRow.GOMAXPROCS:
			detail = fmt.Sprintf("%12.0f ns/op, ns not judged: host mismatch with the %s row", m.Ns, blRow.Date)
		case m.Ns > bl.Ns*(1+*tol):
			verdict, failed = "FAIL", true
		case m.Ns < bl.Ns*(1-*tol):
			verdict = "GOOD"
			detail += " — append the row below"
		}
		if bl.Allocs != nil {
			detail += fmt.Sprintf("; %d allocs/op vs %d", m.medianAllocs, *bl.Allocs)
			if m.medianAllocs != *bl.Allocs {
				verdict, failed = "FAIL", true
			}
		}
		fmt.Fprintf(stdout, "  %s  %-46s %s\n", verdict, name, detail)
	}
	code, word := 0, "PASS"
	if failed {
		code, word = 1, "FAIL"
	}
	fmt.Fprintf(stdout, "perfgate: %s\nperfgate: measured row, in BENCH.json's schema:\n", word)
	got.write(stdout)
	return code
}
