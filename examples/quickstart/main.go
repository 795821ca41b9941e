// Quickstart: build a small self-gravitating collapse with the public
// Simulation API, run it, and print what the hierarchy did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/problems"
)

func main() {
	// The headline problem at a very small scale: 16^3 root grid, up to
	// 3 levels of refinement, chemistry off for speed. Problems are
	// resolved by name from the registry; the mutator adjusts the
	// spec's defaults.
	sim, err := core.New("collapse", func(o *problems.Opts) {
		o.RootN = 16
		o.MaxLevel = 3
		o.Chemistry = false
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running 15 root-grid steps of a collapsing primordial clump...")
	for s := 0; s < 15; s++ {
		dt := sim.Step()
		h := sim.Sample()
		fmt.Printf("  step %2d: t=%.4f dt=%.2e  levels=%d  grids=%d  peak density=%.3g\n",
			s, h.Time, dt, h.MaxLevel+1, h.NumGrids, h.PeakRho)
	}

	fmt.Println("\ncomponent usage (paper §5 table):")
	fmt.Println(sim.UsageTable())

	pr, err := sim.RadialProfileAtPeak(12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("radial density profile about the densest point:")
	for b := range pr.R {
		if pr.Mass[b] == 0 {
			continue
		}
		fmt.Printf("  r=%.4f  density=%.4g  enclosed=%.4g\n", pr.R[b], pr.Density[b], pr.Enclosed[b])
	}
	fmt.Println("\n" + sim.FlopReport())
}
