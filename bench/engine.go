package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// enginePlan pins one in-process engine run: rootn, maxlevel and steps are
// always explicit (problem defaults can be enormous), and the one knob the
// seed perturbs. The perturbation is one part in a million: every seed
// gives different bits, but the same refinement history and so the same
// amount of work (±1% on collapse's overdensity moved its wall by 25%).
type enginePlan struct {
	problem  string
	rootN    int
	maxLevel int
	steps    int
	knob     string
	knobBase float64
	// restartLevel and restartSteps describe collapse_restart's second leg:
	// MaxLevel after the restart (the §4 workflow) and the steps taken there.
	restartLevel int
	restartSteps int
}

// Step counts are calibrated once so that one unit (ICs → verified
// checksum) takes 2–5 s on the 2-core reference host and a run repeats it
// several times; nothing else about the configurations is tuned.
var (
	sedovPlan    = enginePlan{problem: "sedov", rootN: 32, maxLevel: 2, steps: 30, knob: "e0", knobBase: 10}
	collapsePlan = enginePlan{problem: "collapse", rootN: 16, maxLevel: 4, steps: 10, knob: "delta", knobBase: 40,
		restartLevel: 5, restartSteps: 1}
	pancakePlan = enginePlan{problem: "pancake", rootN: 64, maxLevel: 0, steps: 4, knob: "acollapse", knobBase: 0.2}
)

// knobValue draws the plan's perturbed knob from the seed.
func (p enginePlan) knobValue(seed int64) float64 {
	u := rand.New(rand.NewSource(seed)).Float64()
	return p.knobBase * (1 + 1e-6*(2*u-1))
}

// engineRun is what one run of a plan recorded, from outside: spans around
// the public calls plus the hierarchy's own accounting read at the end.
type engineRun struct {
	newDur     time.Duration // core.New
	wall       time.Duration // ICs built → checksum computed
	steps      []time.Duration
	timing     amr.Timing
	stats      amr.Stats
	phases     map[string]time.Duration // every other public call, by span name
	rawBytes   int64
	gzBytes    int
	maxLevel   int
	gridsFinal int
	sdr        float64
	checksum   string
	// final is the evolved hierarchy, kept (traced runs only) for the
	// analysis probes.
	final *amr.Hierarchy
}

func (r *engineRun) newSim(p enginePlan, knob float64, workers int, tr *tracer, parent int) (*core.Simulation, error) {
	id := tr.begin(parent, "core.New", "")
	t0 := time.Now()
	sim, err := core.New(p.problem, func(o *problems.Opts) {
		o.RootN, o.MaxLevel, o.Workers = p.rootN, p.maxLevel, workers
		o.Extra = map[string]float64{p.knob: knob}
	})
	r.newDur = time.Since(t0)
	tr.end(id, nil)
	return sim, err
}

// step advances n root steps, one span each. Traced, every step span also
// carries the Timing/Stats deltas of that step: the counts, and one
// reconstructed child per component.
func (r *engineRun) step(sim *core.Simulation, n int, tr *tracer, parent int) {
	for i := 0; i < n; i++ {
		before, sb := sim.H.Timing, sim.H.Stats
		id := tr.begin(parent, "amr.Step", "")
		t0 := time.Now()
		sim.Step()
		r.steps = append(r.steps, time.Since(t0))
		if tr == nil {
			continue
		}
		after, sa := sim.H.Timing, sim.H.Stats
		tr.end(id, map[string]int64{
			"cell_updates":   sa.CellUpdates - sb.CellUpdates,
			"boundary_fills": sa.BoundaryFills - sb.BoundaryFills,
			"grids_created":  sa.GridsCreated - sb.GridsCreated,
			"gravity_solves": sa.GravitySolves - sb.GravitySolves,
			"chem_calls":     sa.ChemCellCalls - sb.ChemCellCalls,
		})
		tr.synth(id, []part{
			{"hydro", after.Hydro - before.Hydro},
			{"gravity", after.Gravity - before.Gravity},
			{"chem", after.Chemistry - before.Chemistry},
			{"nbody", after.NBody - before.NBody},
			{"amr.boundary", after.Boundary - before.Boundary},
			{"amr.rebuild", after.Rebuild - before.Rebuild},
			{"amr.other", after.Other - before.Other},
		})
	}
}

// phase times one public call under a span of the same name.
func (r *engineRun) phase(name string, tr *tracer, parent int, fn func() error) error {
	id := tr.begin(parent, name, "")
	t0 := time.Now()
	err := fn()
	if r.phases == nil {
		r.phases = map[string]time.Duration{}
	}
	r.phases[name] += time.Since(t0)
	tr.end(id, nil)
	return err
}

// absorb adds a hierarchy's accounting to the run (a restart starts a
// fresh hierarchy whose counters begin at zero).
func (r *engineRun) absorb(h *amr.Hierarchy) {
	t, o := &r.timing, h.Timing
	t.Hydro += o.Hydro
	t.Gravity += o.Gravity
	t.Chemistry += o.Chemistry
	t.NBody += o.NBody
	t.Rebuild += o.Rebuild
	t.Boundary += o.Boundary
	t.Other += o.Other
	if t.PerOp == nil {
		t.PerOp = map[string]time.Duration{}
	}
	for name, d := range o.PerOp {
		t.PerOp[name] += d
	}
	s, q := &r.stats, h.Stats
	s.StepsTaken += q.StepsTaken
	s.RebuildCount += q.RebuildCount
	s.GridsCreated += q.GridsCreated
	s.CellUpdates += q.CellUpdates
	s.ChemCellCalls += q.ChemCellCalls
	s.GravitySolves += q.GravitySolves
	s.ParticleKicks += q.ParticleKicks
	s.BoundaryFills += q.BoundaryFills
	s.FluxCorrCells += q.FluxCorrCells
	s.ProjectedCells += q.ProjectedCells
}

// finish computes the checksum (the end of the timed region) and reads the
// final structure.
func (r *engineRun) finish(h *amr.Hierarchy, icsBuilt time.Time, tr *tracer, parent int) {
	r.phase("amr.Checksum", tr, parent, func() error {
		r.checksum = h.ChecksumHex()
		return nil
	})
	r.wall = time.Since(icsBuilt)
	r.absorb(h)
	r.maxLevel, r.gridsFinal, r.sdr = h.MaxLevel(), h.NumGrids(), h.SpatialDynamicRange()
	if tr != nil {
		r.final = h
	}
}

// runPlain is core.New → steps → checksum: sedov_amr, and each half of
// pancake_unigrid.
func runPlain(p enginePlan, knob float64, workers int, tr *tracer) (engineRun, error) {
	var r engineRun
	unit := tr.begin(0, "unit", "")
	defer tr.end(unit, nil)
	sim, err := r.newSim(p, knob, workers, tr, unit)
	if err != nil {
		return r, err
	}
	icsBuilt := time.Now()
	r.step(sim, p.steps, tr, unit)
	r.finish(sim.H, icsBuilt, tr, unit)
	return r, nil
}

// runCollapseRestart is the paper's §4/§6 workflow: evolve, checkpoint,
// restart with one more level allowed, evolve on, then the three analysis
// products of the collapsed object.
func runCollapseRestart(p enginePlan, knob float64, workers int, tr *tracer) (engineRun, error) {
	var r engineRun
	unit := tr.begin(0, "unit", "")
	defer tr.end(unit, nil)
	sim, err := r.newSim(p, knob, workers, tr, unit)
	if err != nil {
		return r, err
	}
	icsBuilt := time.Now()
	r.step(sim, p.steps, tr, unit)

	var blob []byte
	if err := r.phase("snapshot.Encode", tr, unit, func() (err error) {
		blob, r.rawBytes, err = snapshot.EncodeSized(sim.H, sim.Problem)
		return err
	}); err != nil {
		return r, err
	}
	r.gzBytes = len(blob)
	r.absorb(sim.H)

	var h *amr.Hierarchy
	var problem string
	if err := r.phase("snapshot.Read", tr, unit, func() (err error) {
		h, problem, err = snapshot.Read(bytes.NewReader(blob))
		return err
	}); err != nil {
		return r, err
	}
	r.phase("core.Resume", tr, unit, func() error {
		h.Cfg.MaxLevel, h.Cfg.Workers = p.restartLevel, workers
		sim = core.Resume(h, problem)
		return nil
	})
	r.step(sim, p.restartSteps, tr, unit)

	if err := r.phase("analysis.RadialProfile", tr, unit, func() error {
		_, err := sim.RadialProfileAtPeak(24)
		return err
	}); err != nil {
		return r, err
	}
	r.phase("analysis.SurfaceDensity", tr, unit, func() error {
		analysis.SurfaceDensity(sim.H, 2, 0, 1, 0, 1, 256, 256, workers)
		return nil
	})
	r.phase("analysis.FindCollapsedObjects", tr, unit, func() error {
		analysis.FindCollapsedObjects(sim.H, 10, 0.05)
		return nil
	})
	r.finish(sim.H, icsBuilt, tr, unit)
	return r, nil
}

// engineUnit is one repetition of an engine workload: the run at N
// workers and, for pancake_unigrid, the single-threaded baseline before it.
type engineUnit struct {
	main   engineRun
	serial *engineRun
	traced bool
}

// engineWorkload runs units of an engine workload for about `seconds`.
type engineWorkload struct {
	name string
	plan enginePlan
	// run performs the N-worker run of one unit.
	run func(p enginePlan, knob float64, workers int, tr *tracer) (engineRun, error)
	// withSerial adds the workers = 1 baseline to every unit.
	withSerial bool
	// probe makes the traced run's direct calls into the layers this
	// workload's blocking path holds; final is the evolved hierarchy.
	probe func(final *amr.Hierarchy, m metrics)
}

var engineWorkloads = []engineWorkload{
	{name: "sedov_amr", plan: sedovPlan, run: runPlain,
		probe: func(_ *amr.Hierarchy, m metrics) { probeClustering(m) }},
	{name: "collapse_restart", plan: collapsePlan, run: runCollapseRestart,
		probe: func(final *amr.Hierarchy, m metrics) { probeEP128(m); probeAnalysis(final, m) }},
	{name: "pancake_unigrid", plan: pancakePlan, run: runPlain, withSerial: true,
		probe: func(_ *amr.Hierarchy, m metrics) { probeGravity(m) }},
}

// checkGolden evolves the sedov case of the repository's golden regression
// test and compares the hash, to show that the harness drives core the way
// the tests do.
func checkGolden() error {
	const path = "../internal/problems/testdata/golden.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var golden map[string]struct {
		Hash                   string
		RootN, MaxLevel, Steps int
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	g, ok := golden["sedov"]
	if !ok {
		return fmt.Errorf("%s has no sedov entry", path)
	}
	sim, err := core.New("sedov", func(o *problems.Opts) { o.RootN, o.MaxLevel = g.RootN, g.MaxLevel })
	if err != nil {
		return err
	}
	sim.RunSteps(g.Steps)
	if got := sim.H.ChecksumHex(); got != g.Hash {
		return fmt.Errorf("golden sedov hash: harness got %s, %s pins %s", got, path, g.Hash)
	}
	return nil
}

// measureSetup times the engine workloads' set-up, several times over: the
// golden self-check (a fixed small evolution, so the sample is long enough
// to time) followed by core.New on the workload's configuration, which
// builds the initial conditions. It returns the whole samples and the
// core.New parts, in seconds.
func measureSetup(p enginePlan, knob float64, workers int) (setups, news []float64, err error) {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := checkGolden(); err != nil {
			return nil, nil, err
		}
		var r engineRun
		if _, err := r.newSim(p, knob, workers, nil, 0); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		news = append(news, r.newDur.Seconds())
	}
	return setups, news, nil
}

func (w engineWorkload) execute(o options) (*record, error) {
	knob := w.plan.knobValue(o.seed)
	workers := parallelism()
	setups, news, err := measureSetup(w.plan, knob, workers)
	if err != nil {
		return nil, err
	}
	rec := newRecord(w.name, o)
	// The seed-drawn knob value is left out: parameters must agree between
	// the runs compare judges, whatever their seeds.
	rec.Params = map[string]any{
		"problem": w.plan.problem, "rootn": w.plan.rootN, "maxlevel": w.plan.maxLevel, "steps": w.plan.steps,
		"seeded_knob": w.plan.knob, "restart_maxlevel": w.plan.restartLevel, "restart_steps": w.plan.restartSteps,
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var units []engineUnit
	err = repeatFor(o.seconds, 2, func(i int) error {
		// A traced run alternates untraced and traced units; the ratio of
		// their walls is the harness's own overhead.
		u := engineUnit{traced: o.trace && i%2 == 1}
		// Collect the previous unit's hierarchy now, not concurrently with
		// this unit's steps, where the collector would compete with the
		// workers for the same cores.
		runtime.GC()
		var utr *tracer
		if u.traced {
			utr = tr
		}
		if w.withSerial {
			s, err := runPlain(w.plan, knob, 1, utr)
			if err != nil {
				return err
			}
			u.serial = &s
		}
		m, err := w.run(w.plan, knob, workers, utr)
		if err != nil {
			return err
		}
		u.main = m
		units = append(units, u)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Correctness: every unit reproduces the same bits, the serial baseline
	// equals the parallel run, and at seed 1 the bits are the pinned ones.
	want := units[0].main.checksum
	if pinned, err := expectedChecksum(w.name); err != nil {
		return nil, err
	} else if o.seed == 1 {
		want = pinned
	}
	for _, u := range units {
		rec.Attempted++
		if u.main.checksum != want || (u.serial != nil && u.serial.checksum != want) {
			rec.fail(fmt.Sprintf("checksum %s, want %s", u.main.checksum, want))
		}
	}
	rec.Checksums = map[string]string{w.name: units[0].main.checksum}

	if o.trace {
		rec.Metrics["core.new_s"] = median(news)
		w.layerMetrics(units, tr, rec)
		if err := tr.write(tracePath(w.name)); err != nil {
			return nil, err
		}
	} else {
		rec.Metrics["setup_s"] = median(setups)
		w.endToEnd(units, rec)
	}
	return rec, nil
}

// endToEnd reports medians over the units. The step median is taken per
// unit first: every unit runs the same steps, so the median over units of
// one unit's median is steadier than a median of the pooled steps.
func (w engineWorkload) endToEnd(units []engineUnit, rec *record) {
	var walls, p50s []float64
	for _, u := range units {
		steps := durs(u.main.steps, time.Millisecond)
		walls = append(walls, u.main.wall.Seconds())
		p50s = append(p50s, median(steps))
		rec.Samples += len(steps)
	}
	m := rec.Metrics
	m["wall_s"] = median(walls)
	m["ops_per_s"] = float64(len(units[0].main.steps)) / median(walls)
	m["op_p50_ms"] = median(p50s)
	m["peak_rss_mb"] = peakRSSMiB(os.Getpid())
}

// layerMetrics fills the per-layer numbers from the traced units: medians
// over units for the times, the first unit's values for the counts (which
// must repeat exactly from unit to unit).
func (w engineWorkload) layerMetrics(units []engineUnit, tr *tracer, rec *record) {
	var traced, serial, untraced []*engineRun
	for i := range units {
		if u := &units[i]; u.traced {
			traced = append(traced, &u.main)
			if u.serial != nil {
				serial = append(serial, u.serial)
			}
		} else {
			untraced = append(untraced, &u.main)
		}
	}
	// medSec is the median over runs of one duration, in seconds.
	medSec := func(runs []*engineRun, f func(r *engineRun) time.Duration) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r).Seconds()
		}
		return median(v)
	}
	sec := func(f func(r *engineRun) time.Duration) float64 { return medSec(traced, f) }
	phaseMS := func(name string) float64 {
		return 1e3 * sec(func(r *engineRun) time.Duration { return r.phases[name] })
	}
	op := func(name string) float64 {
		return sec(func(r *engineRun) time.Duration { return r.timing.PerOp[name] })
	}
	wallOf := func(r *engineRun) time.Duration { return r.wall }

	first := traced[0]
	st := first.stats
	for _, r := range traced[1:] {
		if r.stats != st {
			rec.fail("engine counters differ between units of one run")
		}
	}
	wall := sec(wallOf)
	hydro := sec(func(r *engineRun) time.Duration { return r.timing.Hydro })
	gravity := sec(func(r *engineRun) time.Duration { return r.timing.Gravity })
	chem := sec(func(r *engineRun) time.Duration { return r.timing.Chemistry })
	nbody := sec(func(r *engineRun) time.Duration { return r.timing.NBody })
	boundary := sec(func(r *engineRun) time.Duration { return r.timing.Boundary })
	rebuild := sec(func(r *engineRun) time.Duration { return r.timing.Rebuild })

	var stepMS []float64
	for _, r := range traced {
		stepMS = append(stepMS, durs(r.steps, time.Millisecond)...)
	}

	m := rec.Metrics
	m["core.resume_ms"] = phaseMS("core.Resume")

	m["amr.boundary_s"] = boundary
	m["amr.boundary_fills"] = float64(st.BoundaryFills)
	m["amr.us_per_boundary_fill"] = ratio(boundary*1e6, float64(st.BoundaryFills))
	m["amr.rebuild_s"] = rebuild
	m["amr.rebuilds"] = float64(st.RebuildCount)
	m["amr.ms_per_rebuild"] = ratio(rebuild*1e3, float64(st.RebuildCount))
	m["amr.grids_created"] = float64(st.GridsCreated)
	m["amr.other_s"] = sec(func(r *engineRun) time.Duration { return r.timing.Other })
	m["amr.driver_self_s"] = tr.selfTimeOf("amr.Step").Seconds() / float64(len(traced))
	m["amr.flux_corr_cells"] = float64(st.FluxCorrCells)
	m["amr.projected_cells"] = float64(st.ProjectedCells)
	m["amr.max_level"] = float64(first.maxLevel)
	m["amr.grids_final"] = float64(first.gridsFinal)
	m["amr.sdr"] = first.sdr
	m["amr.cell_updates"] = float64(st.CellUpdates)
	m["amr.zone_updates_per_s"] = ratio(float64(st.CellUpdates), wall)
	m["amr.step_ms_p50"] = median(stepMS)
	m["amr.step_ms_p90"] = percentile(stepMS, 90)
	m["amr.step_ms_max"] = percentile(stepMS, 100)
	m["amr.checksum_ms"] = phaseMS("amr.Checksum")

	m["hydro.busy_s"] = hydro
	m["hydro.ns_per_cell_update"] = ratio(hydro*1e9, float64(st.CellUpdates))
	m["hydro.share"] = ratio(hydro, wall)
	m["gravity.busy_s"] = gravity
	m["gravity.solves"] = float64(st.GravitySolves)
	m["gravity.ms_per_solve"] = ratio(op("gravity.solve")*1e3, float64(st.GravitySolves))
	m["chem.busy_s"] = chem
	m["chem.cell_calls"] = float64(st.ChemCellCalls)
	m["chem.ns_per_cell_call"] = ratio(chem*1e9, float64(st.ChemCellCalls))
	m["nbody.busy_s"] = nbody
	m["nbody.particle_kicks"] = float64(st.ParticleKicks)
	m["nbody.ns_per_kick"] = ratio(nbody*1e9, float64(st.ParticleKicks))

	m["physics.op.hydro_s"] = op("hydro")
	m["physics.op.chemistry_s"] = op("chemistry")
	m["physics.op.gravity.solve_s"] = op("gravity.solve")
	m["physics.op.gravity.kick_s"] = op("gravity.kick")
	m["physics.op.expansion_s"] = op("expansion")
	m["physics.op.nbody_s"] = op("nbody")

	m["par.workers"] = float64(parallelism())
	if len(serial) > 0 {
		wall1 := medSec(serial, wallOf)
		m["par.wall_1w_s"] = wall1
		m["par.scaling_efficiency"] = ratio(wall1, float64(parallelism())*wall)
		m["par.hydro_speedup"] = ratio(medSec(serial, func(r *engineRun) time.Duration { return r.timing.Hydro }), hydro)
		m["par.gravity_speedup"] = ratio(medSec(serial, func(r *engineRun) time.Duration { return r.timing.Gravity }), gravity)
		m["par.nbody_speedup"] = ratio(medSec(serial, func(r *engineRun) time.Duration { return r.timing.NBody }), nbody)
	}

	m["snapshot.encode_ms"] = phaseMS("snapshot.Encode")
	m["snapshot.read_ms"] = phaseMS("snapshot.Read")
	m["snapshot.raw_mb"] = float64(first.rawBytes) / mib
	m["snapshot.gz_mb"] = float64(first.gzBytes) / mib
	m["snapshot.encode_mb_per_s"] = ratio(float64(first.rawBytes)/mib, phaseMS("snapshot.Encode")/1e3)
	m["analysis.profile_ms"] = phaseMS("analysis.RadialProfile")
	m["analysis.projection_ms"] = phaseMS("analysis.SurfaceDensity")
	m["analysis.clumps_ms"] = phaseMS("analysis.FindCollapsedObjects")

	m["bench.trace_overhead_ratio"] = ratio(wall, medSec(untraced, wallOf))
	w.probe(first.final, m)
	rec.Samples = len(stepMS)
}
