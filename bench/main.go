// Command bench is the repository's one benchmark: five workloads over the
// whole stack (three drive the engine in-process through internal/core, two
// drive a spawned `enzogo serve` over HTTP), end-to-end metrics from an
// untraced run and per-layer metrics from a traced one, every output
// verified. See README.md; the contract it is written to is BENCHMARK.json
// in the repository root.
//
//	bash bench/run.sh                          every workload, untraced
//	bash bench/run.sh -trace 1                 ... plus the traced pass
//	bash bench/run.sh -workload serve_hot -seed 7 -seconds 15 -trace 0
//	bash bench/run.sh compare A.json B.json    judge two sets of results
//
// It must run with bench/ as the working directory (run.sh and
// `go run -C bench .` both arrange that).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const outDir = "out"

// options are the arguments of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	execute(o options) (*record, error)
}

// workloadNames fixes the order of the workloads; BENCHMARK.json lists the
// reason each exists.
var workloadNames = []string{"sedov_amr", "collapse_restart", "pancake_unigrid", "serve_cold", "serve_hot"}

func findWorkload(name string) (workload, bool) {
	for _, w := range engineWorkloads {
		if w.name == name {
			return w, true
		}
	}
	switch name {
	case "serve_cold":
		return serveCold{}, true
	case "serve_hot":
		return serveHot{}, true
	}
	return nil, false
}

// record is everything one run of one workload produced. The driver reads
// the contract line printed from it; all-mode collects records into
// out/results.json, which is what `compare` reads.
type record struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Conditions conditions     `json:"conditions"`
	Params     map[string]any `json:"params"`
	Attempted  int            `json:"ops_attempted"`
	Failed     int            `json:"ops_failed"`
	// Samples is the number of latencies behind op_p50_ms.
	Samples   int               `json:"latency_samples"`
	Metrics   metrics           `json:"metrics"`
	Checksums map[string]string `json:"checksums"`
	Notes     []string          `json:"notes,omitempty"`
}

func newRecord(name string, o options) *record {
	return &record{Workload: name, Traced: o.trace, Conditions: measure(o), Metrics: metrics{}}
}

// fail counts one failed operation, keeping the first few reasons.
func (r *record) fail(reason string) {
	r.Failed++
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, reason)
	}
}

// defs returns the metrics this record must report.
func (r *record) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics.
func (r *record) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	return json.Marshal(out)
}

// print writes one `workload metric value unit` line per metric.
func (r *record) print() {
	for _, d := range r.defs() {
		fmt.Printf("%s %s %s %s\n", r.Workload, d.Name, strconv.FormatFloat(r.Metrics[d.Name], 'g', -1, 64), d.Unit)
	}
	fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	if !r.Traced {
		fmt.Printf("%s latency_samples %d count (supports p%g)\n", r.Workload, r.Samples, supportedTail(r.Samples))
	}
	for _, n := range r.Notes {
		fmt.Printf("%s note: %s\n", r.Workload, n)
	}
}

func recordPath(name string, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", name, b2i(traced)))
}

func tracePath(name string) string {
	return filepath.Join(outDir, "trace-"+name+".jsonl")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parallelism is the workers / clients / slots count of every workload.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// repeatFor runs unit(0), unit(1), ... for about `seconds`: at least
// minUnits of them, then for as long as one more (at the median length so
// far) still fits.
func repeatFor(seconds float64, minUnits int, unit func(i int) error) error {
	start := time.Now()
	var lengths []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := unit(i); err != nil {
			return err
		}
		lengths = append(lengths, time.Since(t0).Seconds())
		if i+1 >= minUnits && time.Since(start).Seconds()+median(lengths) > seconds {
			return nil
		}
	}
}

// peakRSSMiB reads VmHWM, the peak resident set of a process.
func peakRSSMiB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// expectedChecksum returns the checksum expected.json pins for an engine
// workload at seed 1.
func expectedChecksum(name string) (string, error) {
	raw, err := os.ReadFile("expected.json")
	if err != nil {
		return "", err
	}
	var pinned struct {
		Seed      int64             `json:"seed"`
		Checksums map[string]string `json:"checksums"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	sum, ok := pinned.Checksums[name]
	if !ok || pinned.Seed != 1 {
		return "", fmt.Errorf("expected.json pins no seed-1 checksum for %s", name)
	}
	return sum, nil
}

// runOne executes one workload in this process and prints its metrics,
// ending with the contract line.
func runOne(name string, o options) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec, err := w.execute(o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !rec.Traced {
		for _, d := range endToEnd {
			if !(rec.Metrics[d.Name] > 0) {
				rec.fail("end-to-end metric " + d.Name + " was not measured")
			}
		}
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(recordPath(name, o.trace), raw, 0o644); err != nil {
		return err
	}
	rec.print()
	line, err := rec.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// results is the file all-mode writes and compare reads.
type results struct {
	Runs []*record `json:"runs"`
	// Claim is always null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// runAll re-executes this binary once per workload (a fresh process each,
// so set-up time and peak memory are per workload), streams the children's
// output and gathers their records.
func runAll(o options, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all results
	failed := 0
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true}[:1+b2i(o.trace)] {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(traced)))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			raw, err := os.ReadFile(recordPath(name, traced))
			if err != nil {
				return err
			}
			rec := new(record)
			if err := json.Unmarshal(raw, rec); err != nil {
				return err
			}
			all.Runs = append(all.Runs, rec)
			failed += rec.Failed
		}
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// dryRun prints every name a run would emit, without running anything.
func dryRun(w io.Writer) {
	for _, name := range workloadNames {
		fmt.Fprintf(w, "workload %s\n", name)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s\n", d.Name, d.Unit, d.Better)
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\n", d.Name, d.Unit, d.Better)
	}
}

func run(args []string) error {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		return errors.New("run from bench/ inside the repository: bash bench/run.sh, or go run -C bench")
	}
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: compare A B (each a results file, or a directory of them)")
		}
		return compare(args[1], args[2])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds(), "how long each workload measures")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics, spans in out/trace-<workload>.jsonl")
	dry := fs.Bool("dry-run", false, "print the workload and metric names and exit")
	out := fs.String("out", filepath.Join(outDir, "results.json"), "where a run of every workload writes its results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *dry {
		dryRun(os.Stdout)
		return nil
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name != "" {
		return runOne(*name, o)
	}
	return runAll(o, *out)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
