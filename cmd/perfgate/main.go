// Command perfgate is the CI performance-regression gate: it runs the
// repository's named benchmarks (BenchmarkScaling*, BenchmarkChemistry,
// BenchmarkProjection, BenchmarkSimThroughput, BenchmarkServeReads,
// BenchmarkSchedulerQoS, BenchmarkSpeculativeSweep),
// parses the `go test -bench` output, and compares each ns/op against
// the latest row of the committed BENCH_*.json histories. A benchmark slower than baseline by
// more than the tolerance is a regression and the gate exits 1; a
// benchmark faster by more than the tolerance is reported as an
// improvement worth recording (append a row to the history — never
// overwrite it; see README "Benchmark baselines").
//
// Benchmarks whose measured iteration count is below -min-iters are
// reported but not judged: a single-iteration sample on a noisy host is
// not evidence of a regression. The gate prints the host CPU model and
// NumCPU, and warns (without failing) when the baseline row was recorded
// on a different CPU — cross-machine ns/op comparisons are advisory only.
//
//	perfgate [-tol 0.15] [-min-iters 1] [-benchtime 1s] [-dir .] [-only regexp]
//
// Exit codes: 0 pass, 1 regression (or gated benchmark missing from the
// bench output), 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchResult is one parsed `go test -bench` result line.
type benchResult struct {
	Name    string // benchmark path with the -GOMAXPROCS suffix stripped
	Iters   int
	NsPerOp float64
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// parseBench extracts the result lines from `go test -bench` output.
func parseBench(out string) []benchResult {
	var res []benchResult
	for _, ln := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(ln))
		if m == nil {
			continue
		}
		iters, err1 := strconv.Atoi(m[2])
		ns, err2 := strconv.ParseFloat(m[3], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		res = append(res, benchResult{Name: stripProcs(m[1]), Iters: iters, NsPerOp: ns})
	}
	return res
}

// stripProcs removes the trailing -N GOMAXPROCS suffix go test appends to
// every benchmark name.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// gateSpec binds one committed BENCH_*.json history to the benchmarks it
// baselines.
type gateSpec struct {
	File   string                           // history file at the repo root
	Metric string                           // key of the ns/op map in a history row
	Pkg    string                           // package holding the benchmarks
	Bench  string                           // -bench regexp selecting them
	Key    func(name string) (string, bool) // parsed bench name -> metric map key
}

var gates = []gateSpec{
	{
		File: "BENCH_kernels.json", Metric: "ns_per_op", Pkg: ".",
		Bench: "^(BenchmarkScalingStep64|BenchmarkScalingMultigrid64|BenchmarkScalingGravityFFT64|BenchmarkChemistry|BenchmarkScalingBoundaryFill)$",
		// The kernels history keys rows by the full benchmark path.
		Key: func(name string) (string, bool) { return name, true },
	},
	{
		File: "BENCH_projection.json", Metric: "ns_per_op", Pkg: ".",
		Bench: "^BenchmarkProjection$",
		Key: func(name string) (string, bool) {
			s, ok := strings.CutPrefix(name, "BenchmarkProjection/workers")
			if !ok {
				return "", false
			}
			return "workers=" + s, true
		},
	},
	{
		File: "BENCH_sim.json", Metric: "ns_per_job", Pkg: "./internal/sim",
		Bench: "^BenchmarkSimThroughput$",
		Key: func(name string) (string, bool) {
			return strings.CutPrefix(name, "BenchmarkSimThroughput/")
		},
	},
	{
		File: "BENCH_serve.json", Metric: "ns_per_op", Pkg: "./internal/sim",
		Bench: "^BenchmarkServeReads$",
		Key: func(name string) (string, bool) {
			return strings.CutPrefix(name, "BenchmarkServeReads/")
		},
	},
	{
		File: "BENCH_queue.json", Metric: "ns_per_op", Pkg: "./internal/sim",
		Bench: "^BenchmarkSchedulerQoS$",
		Key: func(name string) (string, bool) {
			return strings.CutPrefix(name, "BenchmarkSchedulerQoS/")
		},
	},
	{
		File: "BENCH_speculate.json", Metric: "ns_per_op", Pkg: "./internal/sim",
		Bench: "^BenchmarkSpeculativeSweep$",
		Key: func(name string) (string, bool) {
			return strings.CutPrefix(name, "BenchmarkSpeculativeSweep/")
		},
	},
}

// baseline is the latest row of one history file, reduced to what the gate
// needs.
type baseline struct {
	Date string
	CPU  string
	Ns   map[string]float64
}

// loadLatest reads a BENCH_*.json history and returns its newest row.
// Histories are append-only (rows are ordered oldest to newest), so the
// last element is the baseline.
func loadLatest(path, metric string) (baseline, error) {
	var bl baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return bl, err
	}
	var file struct {
		History []map[string]json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return bl, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.History) == 0 {
		return bl, fmt.Errorf("%s: empty history", path)
	}
	row := file.History[len(file.History)-1]
	if v, ok := row["date"]; ok {
		_ = json.Unmarshal(v, &bl.Date)
	}
	if v, ok := row["cpu"]; ok {
		_ = json.Unmarshal(v, &bl.CPU)
	}
	v, ok := row[metric]
	if !ok {
		return bl, fmt.Errorf("%s: latest row has no %q map", path, metric)
	}
	if err := json.Unmarshal(v, &bl.Ns); err != nil {
		return bl, fmt.Errorf("%s: %s: %w", path, metric, err)
	}
	return bl, nil
}

// verdict is the judgement for one baselined benchmark.
type verdict struct {
	Key        string
	Base, Got  float64
	Iters      int
	Regression bool
	Improved   bool
	LowIters   bool
}

// compare judges every parsed result that maps into the baseline. Returns
// the verdicts plus the baseline keys no result matched (a renamed or
// deleted benchmark must not silently pass the gate).
func compare(results []benchResult, bl baseline, key func(string) (string, bool), tol float64, minIters int) ([]verdict, []string) {
	seen := map[string]bool{}
	var vs []verdict
	for _, r := range results {
		k, ok := key(r.Name)
		if !ok {
			continue
		}
		base, ok := bl.Ns[k]
		if !ok {
			continue // measured but not baselined (e.g. a NumCPU row the recording host lacked)
		}
		seen[k] = true
		v := verdict{Key: k, Base: base, Got: r.NsPerOp, Iters: r.Iters}
		switch {
		case r.Iters < minIters:
			v.LowIters = true
		case r.NsPerOp > base*(1+tol):
			v.Regression = true
		case r.NsPerOp < base*(1-tol):
			v.Improved = true
		}
		vs = append(vs, v)
	}
	var missing []string
	for k := range bl.Ns {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	return vs, missing
}

// cpuModel returns the host CPU model string (normalized whitespace), or
// the architecture when /proc/cpuinfo is unavailable.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, ln := range strings.Split(string(raw), "\n") {
			rest, ok := strings.CutPrefix(ln, "model name")
			if !ok {
				continue
			}
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.Join(strings.Fields(v), " ")
			}
		}
	}
	return runtime.GOARCH
}

// cpuMatches reports whether the baseline row's cpu annotation names the
// host CPU. Vendor decorations and spacing are ignored.
func cpuMatches(baselineCPU, hostModel string) bool {
	return strings.Contains(normalizeCPU(baselineCPU), normalizeCPU(hostModel))
}

func normalizeCPU(s string) string {
	s = strings.ToLower(s)
	for _, deco := range []string{"(r)", "(tm)", "(c)"} {
		s = strings.ReplaceAll(s, deco, "")
	}
	return strings.Join(strings.Fields(s), " ")
}

// runBenchCmd executes the benchmarks of one gate and returns the combined
// output. A variable so tests can substitute canned output.
var runBenchCmd = func(pkg, bench, benchtime, dir string) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0.15, "relative ns/op tolerance before a change is judged")
	minIters := fs.Int("min-iters", 1, "skip judging benchmarks measured with fewer iterations")
	benchtime := fs.String("benchtime", "", "go test -benchtime value (empty = go default)")
	dir := fs.String("dir", ".", "repo root holding the BENCH_*.json histories")
	only := fs.String("only", "", "regexp filtering which BENCH files to gate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	host := cpuModel()
	fmt.Fprintf(stdout, "perfgate: cpu=%q numcpu=%d %s tol=%.0f%%\n",
		host, runtime.NumCPU(), runtime.Version(), *tol*100)

	var filter *regexp.Regexp
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fmt.Fprintf(stderr, "perfgate: bad -only: %v\n", err)
			return 2
		}
		filter = re
	}

	failed := false
	for _, g := range gates {
		if filter != nil && !filter.MatchString(g.File) {
			continue
		}
		bl, err := loadLatest(filepath.Join(*dir, g.File), g.Metric)
		if err != nil {
			fmt.Fprintf(stderr, "perfgate: %v\n", err)
			return 2
		}
		if !cpuMatches(bl.CPU, host) {
			fmt.Fprintf(stdout, "%s: WARNING baseline recorded on %q, host is %q — ns/op comparison is advisory\n",
				g.File, bl.CPU, host)
		}
		fmt.Fprintf(stdout, "%s: baseline %s, running go test -bench %q %s\n", g.File, bl.Date, g.Bench, g.Pkg)
		out, err := runBenchCmd(g.Pkg, g.Bench, *benchtime, *dir)
		if err != nil {
			fmt.Fprintf(stderr, "perfgate: bench run failed: %v\n%s", err, out)
			return 2
		}
		verdicts, missing := compare(parseBench(out), bl, g.Key, *tol, *minIters)
		for _, v := range verdicts {
			delta := (v.Got/v.Base - 1) * 100
			switch {
			case v.LowIters:
				fmt.Fprintf(stdout, "  SKIP  %-45s %12.0f ns/op (%+.1f%%, %d iters < %d)\n",
					v.Key, v.Got, delta, v.Iters, *minIters)
			case v.Regression:
				failed = true
				fmt.Fprintf(stdout, "  FAIL  %-45s %12.0f ns/op vs %12.0f baseline (%+.1f%% > +%.0f%%)\n",
					v.Key, v.Got, v.Base, delta, *tol*100)
			case v.Improved:
				fmt.Fprintf(stdout, "  GOOD  %-45s %12.0f ns/op vs %12.0f baseline (%+.1f%% — append a new history row)\n",
					v.Key, v.Got, v.Base, delta)
			default:
				fmt.Fprintf(stdout, "  ok    %-45s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n",
					v.Key, v.Got, v.Base, delta)
			}
		}
		for _, k := range missing {
			failed = true
			fmt.Fprintf(stdout, "  FAIL  %-45s baselined but absent from bench output (renamed or deleted?)\n", k)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "perfgate: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "perfgate: PASS")
	return 0
}
