package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkJSON is ../BENCHMARK.json, the contract this harness is
// written to: the regression bound of each end-to-end metric lives there.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	b := new(benchmarkJSON)
	if err := json.Unmarshal(raw, b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// defaultSeconds is the run length BENCHMARK.json fixes.
func defaultSeconds() float64 {
	if b, err := loadBenchmarkJSON(); err == nil && b.RunSeconds > 0 {
		return float64(b.RunSeconds)
	}
	return 15
}

// loadSet reads a set of untraced records: one results file, or every
// *.json results file of a directory.
func loadSet(path string) ([]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []*record
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range res.Runs {
			if !r.Traced {
				set = append(set, r)
			}
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", path)
	}
	return set, nil
}

// quartiles returns the first quartile, median and third quartile of v as
// Python's statistics.quantiles(v, n=4) gives them; ok is false for fewer
// than two values.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based, may fall outside [1, n]
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3), true
}

// conditionsKey is what must agree between every run compared: all of the
// measurement conditions except the commit, and the workload's parameters.
func conditionsKey(r *record) string {
	c := r.Conditions
	c.Commit, c.Seed = "", 0
	raw, _ := json.Marshal(struct {
		C conditions
		P map[string]any
	}{c, r.Params})
	return string(raw)
}

// compare judges set B against set A, per workload and end-to-end metric,
// with the bounds of BENCHMARK.json. It returns an error — a non-zero exit
// — when a metric regressed, when checksums differ, when B fails a larger
// share of its operations, or when the two sets were not measured under
// the same conditions.
func compare(pathA, pathB string) error {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}

	byWorkload := func(set []*record, name string) []*record {
		var out []*record
		for _, r := range set {
			if r.Workload == name {
				out = append(out, r)
			}
		}
		return out
	}
	var problems []string
	for _, name := range workloadNames {
		ra, rb := byWorkload(a, name), byWorkload(b, name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-17s missing from one set, skipped\n", name)
			continue
		}

		// Refuse to judge across differing conditions or seeds.
		key := conditionsKey(ra[0])
		var seedsA, seedsB []int64
		for _, r := range ra {
			seedsA = append(seedsA, r.Conditions.Seed)
			if conditionsKey(r) != key {
				return fmt.Errorf("%s: runs of %s were measured under differing conditions", name, pathA)
			}
		}
		for _, r := range rb {
			seedsB = append(seedsB, r.Conditions.Seed)
			if conditionsKey(r) != key {
				return fmt.Errorf("%s: measurement conditions differ between the sets:\n  %s\n  %s", name, key, conditionsKey(r))
			}
		}
		sort.Slice(seedsA, func(i, j int) bool { return seedsA[i] < seedsA[j] })
		sort.Slice(seedsB, func(i, j int) bool { return seedsB[i] < seedsB[j] })
		if fmt.Sprint(seedsA) != fmt.Sprint(seedsB) {
			return fmt.Errorf("%s: the sets ran different seeds: %v and %v", name, seedsA, seedsB)
		}

		// Same seed, same name → same bits, or a "win" changed the answer.
		sums := map[string]string{}
		for _, r := range ra {
			for k, v := range r.Checksums {
				sums[fmt.Sprint(r.Conditions.Seed, " ", k)] = v
			}
		}
		for _, r := range rb {
			for k, v := range r.Checksums {
				if was, ok := sums[fmt.Sprint(r.Conditions.Seed, " ", k)]; ok && was != v {
					problems = append(problems, fmt.Sprintf("%s: checksum %s differs at seed %d: %s, then %s", name, k, r.Conditions.Seed, was, v))
				}
			}
		}
		failShare := func(set []*record) float64 {
			var failed, attempted float64
			for _, r := range set {
				failed, attempted = failed+float64(r.Failed), attempted+float64(r.Attempted)
			}
			return ratio(failed, attempted)
		}
		if fa, fb := failShare(ra), failShare(rb); fb > fa {
			problems = append(problems, fmt.Sprintf("%s: failed share of operations rose from %g to %g", name, fa, fb))
		}

		for _, d := range bj.EndToEnd {
			values := func(set []*record) []float64 {
				v := make([]float64, len(set))
				for i, r := range set {
					v[i] = r.Metrics[d.Name]
				}
				return v
			}
			va, vb := values(ra), values(rb)
			a1, a2, a3, okA := quartiles(va)
			b1, b2, b3, okB := quartiles(vb)
			if !okA || !okB {
				a2, b2 = median(va), median(vb)
			}
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := max(ratio(a3-a1, a2), ratio(b3-b1, b2)); {
			case !okA || !okB || spread > d.Bound:
				verdict = "unresolved" // the runs disagree by more than the bound could resolve
			case worse > d.Bound:
				verdict = "regressed"
				problems = append(problems, fmt.Sprintf("%s %s regressed by %.1f%% (bound %.0f%%)", name, d.Name, 100*worse, 100*d.Bound))
			}
			fmt.Printf("%-17s %-12s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g] %s  B/A %.4f (base %.6g %s, n=%d+%d)  %s\n",
				name, d.Name, a2, a1, a3, b2, b1, b3, d.Unit, b2/a2, a2, d.Unit, len(va), len(vb), verdict)
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL", p)
	}
	if len(problems) > 0 {
		return errors.New("comparison failed")
	}
	return nil
}
