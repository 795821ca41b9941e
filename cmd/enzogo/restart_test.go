package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/snapshot"
)

// TestRestartContinuesTimeCadences: a -restart run primes its output
// plan with the snapshot's time, so an every_time boundary crossed by the
// first step after the restart fires there instead of being dropped.
func TestRestartContinuesTimeCadences(t *testing.T) {
	if testing.Short() {
		t.Skip("real-binary E2E; skipped under -short")
	}
	tmp := t.TempDir()
	bin := buildTool(t, tmp, "enzogo", ".")
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("enzogo %v: %v\n%s", args, err, out)
		}
	}
	snap := filepath.Join(tmp, "sedov.snap")
	run("-problem", "sedov", "-rootn", "8", "-maxlevel", "1", "-steps", "2", "-workers", "1", "-save", snap)
	h, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	// The first boundary lies just past the snapshot's time t0, so the
	// first post-restart step crosses it.
	every := strconv.FormatFloat(1.000001*h.Time, 'g', -1, 64)
	out := filepath.Join(tmp, "out")
	run("-restart", snap, "-steps", "2", "-workers", "1", "-outdir", out, "-output", "slice,everytime="+every)
	if m, _ := filepath.Glob(filepath.Join(out, "*_step0000.*")); len(m) == 0 {
		entries, _ := os.ReadDir(out)
		t.Fatalf("no step0000 product after the restart; wrote %v", entries)
	}
}
