package problems

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates testdata/golden.json from the current physics:
//
//	go test ./internal/problems -run TestGoldenRegression -update
//
// Only do this when a PR intentionally changes the numerics; the whole
// point of the file is that unintentional drift fails CI.
var update = flag.Bool("update", false, "rewrite the golden checksum file")

// goldenEntry pins one problem's evolved state. The sizes are recorded so
// a mismatch report shows what configuration the hash belongs to.
type goldenEntry struct {
	Hash     string `json:"hash"`
	RootN    int    `json:"rootn"`
	MaxLevel int    `json:"maxlevel"`
	Steps    int    `json:"steps"`
}

const goldenFile = "testdata/golden.json"
const goldenSteps = 2

// goldenWorkers are the worker budgets every problem is evolved at. Every
// kernel, including the CIC deposit's fixed-chunk reduction, is bitwise
// invariant under the worker count, so each must reproduce the one
// committed hash — this test is the proof that a job's ID can leave the
// worker count out.
var goldenWorkers = []int{1, 2, 3, 8}

// goldenOpts shrinks a spec's defaults to the pinned golden size: 16³
// and at most two refinement levels.
func goldenOpts(spec Spec) Opts {
	o := spec.Defaults
	o.RootN = 16
	if o.MaxLevel > 2 {
		o.MaxLevel = 2
	}
	return o
}

// TestGoldenRegression is the drift alarm for the whole physics stack:
// every registered problem evolves two root steps at 16³, at each of
// goldenWorkers, and its state checksum (amr.Checksum: every field bit of
// every grid plus particles) must equal the committed golden hash. Any PR
// that changes any answer anywhere trips it — intentional changes
// regenerate with -update.
func TestGoldenRegression(t *testing.T) {
	golden := map[string]goldenEntry{}
	if raw, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("%s is corrupt: %v", goldenFile, err)
		}
	} else if !*update {
		t.Fatalf("missing %s — run with -update to create it: %v", goldenFile, err)
	}

	got := map[string]goldenEntry{}
	for _, spec := range Specs() { // sorted: table order matches -list
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := golden[spec.Name]
			if !ok && !*update {
				t.Fatalf("problem %q has no golden entry — run with -update after registering a problem", spec.Name)
			}
			for i, workers := range goldenWorkers {
				o := goldenOpts(spec)
				o.Workers = workers
				h, err := BuildSpec(spec, o)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < goldenSteps; s++ {
					h.Step()
				}
				entry := goldenEntry{
					Hash:     h.ChecksumHex(),
					RootN:    o.RootN,
					MaxLevel: o.MaxLevel,
					Steps:    goldenSteps,
				}
				if i == 0 {
					got[spec.Name] = entry
					if *update {
						want = entry // the other budgets must reproduce it
					}
				}
				if want != entry {
					t.Errorf("golden mismatch for %q at %d workers:\n  committed: %+v\n  got:       %+v\n"+
						"the physics changed; if intentional, regenerate with -update",
						spec.Name, workers, want, entry)
				}
			}
		})
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenFile)
		return
	}

	// A golden entry whose problem vanished means the registry shrank
	// silently; make that loud too. Checked against the registry, not
	// the subtests that ran, so a filtered -run invocation stays clean.
	for name := range golden {
		if _, ok := Get(name); !ok {
			t.Errorf("golden entry %q has no registered problem — deregistered? run -update if intentional", name)
		}
	}
}
