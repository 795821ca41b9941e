// Command gridstats runs a collapse and prints the Fig.-5 data series:
// maximum level and number of grids versus time, plus grids-per-level and
// work-per-level distributions at two representative epochs.
//
//	gridstats -steps 30
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/problems"
)

func main() {
	steps := flag.Int("steps", 30, "root steps")
	rootN := flag.Int("rootn", 16, "root grid size")
	maxLevel := flag.Int("maxlevel", 5, "max level")
	chem := flag.Bool("chem", true, "chemistry on")
	flag.Parse()

	sim, err := core.New("collapse", func(o *problems.Opts) {
		o.RootN = *rootN
		o.MaxLevel = *maxLevel
		o.Chemistry = *chem
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("# time  maxlevel  ngrids  peak_density")
	var history []core.StructureSample
	for s := 0; s < *steps; s++ {
		sim.Step()
		h := sim.Sample()
		history = append(history, h)
		fmt.Printf("%8.5f  %2d  %4d  %.4g\n", h.Time, h.MaxLevel, h.NumGrids, h.PeakRho)
	}

	early := history[len(history)/4]
	late := history[len(history)-1]
	fmt.Println("\n# grids per level (early | late)")
	maxLen := len(early.GridsPer)
	if len(late.GridsPer) > maxLen {
		maxLen = len(late.GridsPer)
	}
	for l := 0; l < maxLen; l++ {
		e, lt := 0, 0
		if l < len(early.GridsPer) {
			e = early.GridsPer[l]
		}
		if l < len(late.GridsPer) {
			lt = late.GridsPer[l]
		}
		fmt.Printf("level %2d: %4d | %4d\n", l, e, lt)
	}
	fmt.Println("\n# work per level (late, normalized)")
	var wmax float64
	for _, w := range late.WorkPer {
		if w > wmax {
			wmax = w
		}
	}
	for l, w := range late.WorkPer {
		fmt.Printf("level %2d: %.3f\n", l, w/wmax)
	}
	fmt.Printf("\ngrids created: %d  deleted: %d  rebuilds: %d\n",
		sim.H.Stats.GridsCreated, sim.H.Stats.GridsDeleted, sim.H.Stats.RebuildCount)
}
