// Package repro is a from-scratch Go reproduction of "Achieving Extreme
// Resolution in Numerical Cosmology Using Adaptive Mesh Refinement:
// Resolving Primordial Star Formation" (Bryan, Abel & Norman, SC 2001) —
// the Enzo cosmological AMR code and its primordial star formation
// application.
//
// The library lives under internal/: the SAMR engine (internal/amr), the
// operator-split physics pipeline (internal/physics), two hydro solvers
// (internal/hydro), FFT+multigrid gravity (internal/gravity), adaptive
// particle-mesh N-body (internal/nbody), the 12-species primordial
// chemistry network (internal/chem), 128-bit extended precision
// arithmetic (internal/ep128), Berger–Rigoutsos clustering
// (internal/clustering), cosmological initial conditions
// (internal/cosmology), the problem registry (internal/problems),
// analysis tools and the derived-output pipeline (internal/analysis), the
// job service (internal/sim) and the Simulation façade (internal/core).
// docs/ARCHITECTURE.md maps the packages, the W-cycle and job-service
// dataflows, and the paper-section → package cross-reference in detail.
//
// # Registering a new problem
//
// Problem setups are declarative registry entries, not driver edits: one
// problems.Register call makes a scenario available to the enzogo CLI
// (-problem name, listed by -list), core.New, the table-driven smoke
// tests and the CI problem matrix. A Spec carries a one-line summary,
// the problem's default Opts, a table of its problem-specific knobs and a
// builder from Opts to an initialized hierarchy:
//
//	problems.Register(problems.Spec{
//		Name:     "blob",
//		Summary:  "dense cloud crushed by a supersonic wind",
//		Defaults: problems.Opts{RootN: 32, MaxLevel: 2},
//		Knobs: map[string]problems.Knob{
//			"chi":  {Doc: "cloud-to-wind density contrast", Default: 10},
//			"mach": {Doc: "wind Mach number", Default: 3},
//		},
//		Build: func(o problems.Opts) (*amr.Hierarchy, error) {
//			cfg := amr.DefaultConfig(o.RootN)
//			// ... fill the root grid's fields from o.Extra["chi"] ...
//			h, err := amr.NewHierarchy(cfg)
//			// ...
//			h.RebuildHierarchy(1)
//			return h, nil
//		},
//	})
//
// A knob is declared once, with its default, in Knobs; its value arrives
// in Opts.Extra (bound to repeated "-p key=value" CLI flags and to a job
// request's "knobs"). Build rejects a key the table does not declare, and
// hands the builder an Extra holding every declared knob, unset ones at
// their Default, so a builder reads o.Extra[key] directly. The table is
// also the catalog: `enzogo -list -long` and GET /problems print each
// knob as "doc (default d)".
//
// # Registering a new physics operator
//
// The hierarchy advances each grid by running Hierarchy.Physics, a
// physics.Pipeline — a plain []physics.Operator — of operator-split
// components (gravity half-kick, hydro, half-kick, N-body KDK, expansion
// drag, chemistry by default, plus the level-wide Poisson solve as a
// per-level stage). An
// operator sees only a physics.Grid view and the run's physics.Context,
// so it runs unchanged on every grid of every level — the paper's
// "off-the-shelf solver" architecture. To add physics (a tracer field,
// a heating source, star formation), implement physics.Operator —
// Name, Timing Component, ghost-zone depth NGhost, per-grid Apply, and
// a Timestep constraint hook (return math.Inf(1) when unconstrained) —
// and splice it into the slice:
//
//	h.Physics = append(h.Physics, myOp)                          // after chemistry
//	h.Physics = slices.Insert(h.Physics, len(h.Physics)-1, myOp) // or before it
//
// Operators whose work couples a whole level implement
// physics.LevelOperator; ApplyLevel runs once per level step before the
// per-grid sweep. Wall-clock time is billed per operator into
// amr.Timing (Timing.PerOp, rendered by perf.FormatOperatorTable) so a
// new component shows up in the §5 usage table automatically.
//
// # Parallel execution model
//
// All hot kernels run on the shared data-parallel engine in internal/par:
// a bounded worker pool with dynamic chunk stealing (par.For) plus
// per-worker scratch slots (par.Scratch). One knob — amr.Config.Workers —
// bounds the goroutines used by
//
//   - the hydro pencil sweeps (per-worker pencils recycled via sync.Pool),
//   - red-black multigrid smoothing, residual and prolongation passes,
//   - the batched 1-D line transforms of the 3-D FFT Poisson solve,
//   - the per-cell chemistry backward-Euler solver,
//   - the CIC particle deposit (fixed chunks, each reduced in chunk order
//     over the cells it touched) and the particle kick and drift,
//   - the gas gravity kick and the acceleration gradient (k-planes),
//   - and whole-grid stepping within an AMR level.
//
// The conventions are 0 = runtime.NumCPU() (the default), 1 = serial,
// n = exactly n workers. Grid kernels partition strictly disjoint data
// (pencil lines, same-color cells, FFT lines), so their parallel results
// are bitwise identical to the serial ones at any worker count; the
// N-body deposit, the one reduction, sums fixed particle chunks in chunk
// order — a partition the worker count does not enter — so it is
// worker-count-invariant too. The *ParallelBitwise and *WorkersBitwise*
// tests in each package enforce this.
//
// # Serving simulations as jobs
//
// internal/sim turns one-shot runs into a job service: a bounded
// scheduler evolves several problems concurrently (partitioning the par
// worker budget across its slots), dedupes identical submissions onto a
// single execution, caches completed results under a canonical
// configuration hash, and streams per-step progress over channels. The
// enzogo `serve` subcommand exposes it as an HTTP/JSON API and enzobatch
// drives sweep files through it, but embedding it in any binary is
// direct:
//
//	sched := sim.NewScheduler(sim.Config{MaxConcurrent: 4})
//	defer sched.Close()
//	job, err := sched.Submit(sim.Request{
//		Problem: "sedov", Steps: 20,
//		Knobs: map[string]float64{"e0": 50},
//	})
//	for p := range job.Watch() { // one Progress per root step
//		log.Printf("step %d t=%g dt=%g", p.Step, p.Time, p.Dt)
//	}
//	res, err := job.Result() // res.Hash = amr.Checksum of the answer
//
// A result's Hash is bitwise comparable to a direct core.New run of the
// same resolved configuration, and to the golden regression hashes in
// internal/problems/testdata/golden.json — the table-driven suite
// (golden_test.go) that pins every registered problem's 2-step 16³
// evolution and fails CI on any unintentional numerics drift
// (regenerate intentionally with `make golden-update`). To serve over
// HTTP, mount sim.(*Scheduler).Handler on any mux.
//
// Persistence is pluggable (sim.Store): wire internal/sim/diskstore
// under the scheduler (`enzogo serve -data dir`, sim.Config.Store) and
// the service becomes durable — completed results and artifacts survive
// restarts as cache hits, running jobs checkpoint on a cadence
// (Config.CheckpointEvery/CheckpointTime) and resume bitwise-identically
// after a kill, and Scheduler.Drain checkpoints everything running
// before a graceful exit. docs/ARCHITECTURE.md ("Durability & recovery")
// has the on-disk layout and the recovery sequence.
//
// # Derived data products
//
// Jobs return science products, not just hashes: a Request may carry
// analysis.OutputRequests — declarative slices, projections, radial
// profiles, clump catalogs or snapshots with a cadence in root steps or
// code time — which the scheduler evaluates at root-step boundaries into
// a bounded per-job artifact store, served under /jobs/{id}/artifacts
// (JSON index, typed bodies, NDJSON artifact-ready stream):
//
//	job, _ := sched.Submit(sim.Request{
//		Problem: "sedov", Steps: 20,
//		Outputs: []analysis.OutputRequest{
//			{Kind: analysis.KindProjection, Field: "rho", Axis: 2, N: 128, Every: 5},
//			{Kind: analysis.KindProfile, N: 32}, // once, at the end of the run
//		},
//	})
//	res, _ := job.Wait(ctx)
//	for _, a := range job.Artifacts().All() {
//		os.WriteFile(a.Name, a.Data, 0o644)
//	}
//
// The same requests drive `enzogo -output` (one-shot runs, files in
// -outdir) and sweep rows' "outputs" lists (enzobatch -artifacts).
// Slices and projections resolve whole lines of sight through one
// separable sample lattice (per-axis containment and cell-index tables,
// internal/analysis/lattice.go) instead of locating each sample; the
// sampling loops run on par.For with per-row or per-grid partials
// reduced in a fixed order, so the analysis — like every engine kernel —
// is bitwise invariant to the worker count, and a served artifact can be
// verified byte-for-byte against an offline core.New evaluation (Workers
// is nevertheless part of the job identity; dropping it would change
// every job ID). See the README's "Data products" section for the
// field/kind catalog and curl examples.
//
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured
// record. The BenchmarkScaling* benches measure serial-vs-parallel
// speedup of the hot kernels (the paper's §5 component table, whose
// wall-clock decomposition perf.UsageTable reproduces, is the map of
// where those cycles go). BenchmarkSimThroughput tracks job-service
// throughput. BENCH.json is the committed history of the gated benches
// and `make perfgate` judges a fresh run against it.
package repro
