// Shocktube: validate the two hydro solvers (the paper's "double check on
// any result", §3.2.1) against the exact Sod solution landmarks, printing
// both profiles side by side.
//
// The tube is the registered "sod" problem: two mirrored Riemann problems
// in the periodic box (high state between x=0.25 and 0.75), run on the
// full AMR driver. Until t≈0.14 the two wave fans do not interact, so the
// exact-solution landmarks hold on each side.
//
//	go run ./examples/shocktube
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/problems"
)

func main() {
	const n = 64
	const tEnd = 0.1

	run := func(solver string) (*core.Simulation, []float64) {
		sim, err := core.New("sod", func(o *problems.Opts) {
			o.RootN = n
			o.MaxLevel = 1
			o.Solver = solver
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sim.Run(context.Background(), core.RunOpts{MaxSteps: 500, MaxTime: tEnd}); err != nil {
			log.Fatal(err)
		}
		// Composite density along x through the box center (projection
		// has folded the refined solution onto the root).
		root := sim.H.Root()
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = root.State.Rho.At(i, n/2, n/2)
		}
		return sim, out
	}

	simPPM, ppm := run("ppm")
	_, fd := run("fd")

	fmt.Printf("double Sod tube at t=%.3f (gamma=1.4), density along x\n", simPPM.H.Time)
	fmt.Println("exact landmarks (left fan): post-shock 0.2656 (x~0.075-0.157), contact plateau 0.4263 (x~0.157-0.257)")
	fmt.Printf("%8s %10s %10s\n", "x", "PPM", "FD")
	for i := 0; i < n; i += 2 {
		x := (float64(i) + 0.5) / n
		fmt.Printf("%8.3f %10.4f %10.4f\n", x, ppm[i], fd[i])
	}

	// Quantitative check at the plateaus of the left-hand fan.
	iShock := 115 * n / 1000   // inside the post-shock plateau
	iContact := 200 * n / 1000 // inside the contact plateau
	fmt.Printf("\nplateau checks (want 0.2656 / 0.4263):\n")
	fmt.Printf("  PPM: %.4f / %.4f\n", ppm[iShock], ppm[iContact])
	fmt.Printf("  FD : %.4f / %.4f\n", fd[iShock], fd[iContact])
	fmt.Printf("\nAMR: %d grids, max level %d (refinement tracks the shocks)\n",
		simPPM.H.NumGrids(), simPPM.H.MaxLevel())
}
