// Zoomrestart: the paper's §4 workflow end to end — build the nested
// zoom-in problem from the registry, run the low-resolution pass,
// checkpoint, restart from the snapshot, and confirm the evolution
// continues identically.
//
// Snapshots are self-describing: the header embeds the problem name and
// the full run configuration (including the expansion-factor state), so
// the restart needs no caller-supplied config and never shares mutable
// cosmology state with the original run.
//
//	go run ./examples/zoomrestart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

func main() {
	fmt.Println("building the zoom problem (64^3-effective over an 8^3 root)...")
	sim, err := core.New("zoom", func(o *problems.Opts) {
		o.RootN = 8
		o.MaxLevel = 3
		o.Seed = 20011110
		o.Chemistry = false
		o.Extra = map[string]float64{"staticlevels": 2, "redshift": 99}
	})
	if err != nil {
		log.Fatal(err)
	}
	h := sim.H
	fmt.Printf("  static region %v..%v\n", h.Cfg.StaticLo, h.Cfg.StaticHi)
	fmt.Printf("  hierarchy: %d grids over %d levels\n", h.NumGrids(), h.MaxLevel()+1)

	fmt.Println("running 3 root steps of the low-resolution pass...")
	for s := 0; s < 3; s++ {
		h.Step()
		pos, rho := analysis.DensestPoint(h)
		fmt.Printf("  step %d: a=%.5f  peak=%.4g at (%.2f,%.2f,%.2f)\n",
			s, h.Cfg.Cosmo.A, rho, pos[0], pos[1], pos[2])
	}

	dir, err := os.MkdirTemp("", "zoomrestart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "checkpoint.snap")
	if err := snapshot.Save(path, h, sim.Problem); err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("checkpoint written: %s (%d bytes)\n", path, st.Size())

	// Restart purely from the file: problem name and config come out of
	// the header (the paper restarted with additional static levels —
	// that workflow now mutates h2.Cfg after Load).
	h2, name, err := snapshot.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted problem %q without any caller-supplied config\n", name)
	h.Step()
	h2.Step()
	_, r1 := analysis.DensestPoint(h)
	_, r2 := analysis.DensestPoint(h2)
	fmt.Printf("continued peak density: original %.6g, restarted %.6g\n", r1, r2)
	if r1 == r2 {
		fmt.Println("restart is bit-identical ✓")
	} else {
		fmt.Println("WARNING: restart diverged")
	}
}
