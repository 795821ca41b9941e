// Command enzogo runs one of the registered problems and reports the
// hierarchy statistics, component-usage table and performance summary —
// the reproduction's equivalent of the paper's production driver.
//
// Problems are resolved dynamically from the problem registry
// (internal/problems): any scenario registered with problems.Register is
// runnable by name, and -list prints the catalog. Unset flags fall back
// to the problem's own defaults.
//
// Usage:
//
//	enzogo -list
//	enzogo -problem collapse -steps 40 -rootn 16 -maxlevel 5
//	enzogo -problem sedov -steps 20 -p e0=50
//	enzogo -problem khi -steps 30 -rootn 32
//	enzogo -problem zoom -steps 10 -save run.snap
//	enzogo -restart run.snap -steps 10
//
// Derived data products (slices, projections, radial profiles, clump
// catalogs, snapshots) are collected in flight with repeated -output
// specs — the same declarative requests the job service accepts — and
// written to -outdir as the run crosses each cadence boundary:
//
//	enzogo -problem sedov -steps 20 \
//	    -output projection,field=rho,axis=2,n=128,every=5 \
//	    -output slice,field=temp,format=png -outdir products
//
// A `-output snapshot,every=N` spec writes periodic restart files
// (loadable with -restart) alongside the science products — the offline
// flavor of the job service's durability checkpoints.
//
// `enzogo serve` runs the simulation job service instead of a one-shot
// problem: an HTTP/JSON API (internal/sim) that schedules, dedupes and
// caches runs across a bounded slot pool. With -data it is durable:
// results, artifacts and checkpoints live under the data directory,
// interrupted jobs resume from their latest checkpoint on the next
// start, and SIGTERM drains gracefully (checkpoint, then exit). See the
// README's "Serving & batch sweeps" section for the endpoints.
//
// With -peers/-self, several serve processes form a static cluster:
// each owns a consistent-hash slice of the job-ID space, routes the
// rest one hop to the owner, and replicates running-job state to each
// job's ring successor so a killed peer's jobs resume elsewhere (see
// ARCHITECTURE.md "Distributed topology").
//
// Scheduling is cost-model driven: completed jobs train a per-problem
// runtime predictor, the slot pool dispatches as a weighted fair-share
// queue over the submissions' tenant labels, and -max-job-seconds turns
// the prediction into an admission bound (see README "QoS & cost
// estimates").
//
// With -speculate, idle slots pre-warm the result cache: announced
// sweeps (POST /sweeps) and lineage-inferred neighbours run as
// lowest-class work, preempted at the next root-step boundary when real
// submissions arrive, so trickling sweep clients find their later rows
// already computed (see README "Speculative warming").
//
//	enzogo serve -addr :8080 -slots 4
//	enzogo serve -addr :8080 -max-job-seconds 300 -tenant-weights sci=3,ops=1
//	enzogo serve -addr :8080 -speculate -speculate-budget-seconds 600
//	enzogo serve -addr :8080 -data /var/lib/enzogo -checkpoint-every 5
//	enzogo serve -addr :8081 -data /var/lib/enzogo1 \
//	    -self http://10.0.0.1:8081 -peers http://10.0.0.1:8081,http://10.0.0.2:8081
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sim/diskstore"
	"repro/internal/snapshot"
)

// serve runs the job service until SIGINT/SIGTERM. With -data it runs
// durably: jobs, results, artifacts and restart checkpoints persist
// under the data directory, interrupted jobs resume on the next start,
// and shutdown drains gracefully (every running job is checkpointed at
// its next root-step boundary before the process exits).
func serve(args []string) {
	fs := flag.NewFlagSet("enzogo serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	slots := fs.Int("slots", 2, "jobs evolving concurrently")
	workers := fs.Int("workers", 0, "total par worker budget partitioned across slots (0 = NumCPU)")
	cache := fs.Int("cache", 64, "completed results retained for dedupe/cache hits")
	queue := fs.Int("queue", 256, "max jobs waiting for a slot")
	artifactBytes := fs.Int("artifact-bytes", sim.DefaultArtifactBytes, "per-job derived-output store budget in bytes (oldest artifacts evicted first)")
	artifactCount := fs.Int("artifact-count", sim.DefaultArtifactCount, "per-job derived-output artifact count budget")
	hotBytes := fs.Int64("hot-bytes", sim.DefaultHotTierBytes, "in-memory hot-tier budget for artifact payload reads (LRU over the store's blobs)")
	dataDir := fs.String("data", "", "durable job store directory (empty = in-memory only: nothing survives a restart)")
	ckptEvery := fs.Int("checkpoint-every", 5, "with -data: checkpoint running jobs every N root steps, none at a job's last step (0 = no step cadence)")
	ckptTime := fs.Float64("checkpoint-time", 0, "with -data: checkpoint running jobs every T code time (0 = no time cadence)")
	maxJobSeconds := fs.Float64("max-job-seconds", 0, "reject submissions the cost model predicts to run longer than this many seconds (0 = no admission bound)")
	tenantWeights := fs.String("tenant-weights", "", "comma-separated tenant=weight fair-share shares, e.g. sci=3,ops=1 (unlisted tenants weigh 1)")
	speculate := fs.Bool("speculate", false, "pre-warm the result cache on idle slots: run announced sweep rows (POST /sweeps) and lineage-inferred neighbours speculatively, preempting them when real work arrives")
	specSlots := fs.Int("speculate-slots", 1, "with -speculate: max jobs running speculatively at once (below 1 runs one; ignored without -speculate)")
	specBudget := fs.Float64("speculate-budget-seconds", 0, "with -speculate: per-tenant wall-second budget for speculative runs (0 = unlimited)")
	specMax := fs.Float64("speculate-max-seconds", 0, "with -speculate: skip candidates the cost model predicts to run longer than this many seconds (0 = no bound)")
	peerList := fs.String("peers", "", "comma-separated advertised base URLs of every cluster peer (empty = single node); requires -self")
	self := fs.String("self", "", "this peer's advertised base URL, must appear in -peers")
	pingEvery := fs.Duration("peer-ping", time.Second, "peer health-check cadence")
	fs.Parse(args)

	cfg := sim.Config{
		MaxConcurrent: *slots,
		TotalWorkers:  *workers,
		CacheSize:     *cache,
		QueueDepth:    *queue,
		ArtifactBytes: *artifactBytes,
		ArtifactCount: *artifactCount,
		HotBytes:      *hotBytes,
		MaxJobSeconds: *maxJobSeconds,

		SpeculateBudgetSeconds: *specBudget,
		SpeculateMaxSeconds:    *specMax,
	}
	if *speculate {
		cfg.SpeculateSlots = max(*specSlots, 1)
	}
	if *tenantWeights != "" {
		weights := map[string]float64{}
		for _, kv := range strings.Split(*tenantWeights, ",") {
			name, val, ok := strings.Cut(kv, "=")
			w, err := strconv.ParseFloat(val, 64)
			if !ok || err != nil || !(w > 0) || strings.TrimSpace(name) == "" {
				log.Fatalf("enzogo serve: bad -tenant-weights entry %q (want tenant=positive-weight)", kv)
			}
			weights[strings.TrimSpace(name)] = w
		}
		cfg.TenantWeights = weights
	}
	if *dataDir != "" {
		store, err := diskstore.New(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = store
		cfg.CheckpointEvery = *ckptEvery
		cfg.CheckpointTime = *ckptTime
	}
	sched := sim.NewScheduler(cfg)
	if recovered, resumed, err := sched.RecoverState(); err != nil {
		log.Printf("enzogo serve: store recovery: %v", err)
	} else if *dataDir != "" {
		log.Printf("enzogo serve: data dir %s: recovered %d jobs (%d resumed mid-run)",
			*dataDir, recovered, resumed)
	}
	// With -peers, wrap the scheduler in the distributed peer layer: this
	// node owns a consistent-hash slice of the job-ID space, forwards or
	// proxies the rest one hop, and replicates job state to each job's
	// ring successor for takeover if this node dies.
	api := sched.Handler()
	var peer *sim.Peer
	if *peerList != "" {
		members := strings.Split(*peerList, ",")
		var err error
		peer, err = sim.NewPeer(sched, sim.PeerConfig{
			Self:      *self,
			Peers:     members,
			PingEvery: *pingEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		api = peer.Handler()
		log.Printf("enzogo serve: peer %s in a %d-member ring", *self, len(members))
	}
	// The job API plus the standard pprof endpoints: profile a live
	// service with e.g.
	//   go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	log.Printf("enzogo serve: listening on %s (%d slots × %d workers, cache %d)",
		*addr, *slots, sched.SlotWorkers(), *cache)
	if *speculate {
		log.Printf("enzogo serve: speculative warming on (%d slots, budget %gs, max %gs)",
			cfg.SpeculateSlots, *specBudget, *specMax)
	}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown *begins*; wait for the
	// in-flight handlers (e.g. /events streams) to finish before tearing
	// the scheduler down under them.
	<-drained
	if peer != nil {
		// Stop pinging and replicating before the scheduler goes down; the
		// peers' health checks will mark this node dead and take over.
		peer.Close()
	}
	if *dataDir != "" {
		// Graceful drain: running jobs checkpoint at their next root-step
		// boundary and are recorded as interrupted, so the next
		// `enzogo serve -data` resumes them where they stopped.
		sched.Drain()
		log.Printf("enzogo serve: drained with checkpoints into %s and stopped", *dataDir)
		return
	}
	sched.Close()
	log.Printf("enzogo serve: drained and stopped")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	list := flag.Bool("list", false, "list registered problems (name<TAB>description) and exit")
	long := flag.Bool("long", false, "with -list: include what each problem exercises, its example command and -p knobs")
	problem := flag.String("problem", "collapse", "registered problem name (see -list)")
	steps := flag.Int("steps", 20, "root-grid steps to run")
	rootN := flag.Int("rootn", 0, "root grid size, power of two (0 = problem default)")
	maxLevel := flag.Int("maxlevel", 0, "maximum refinement level (0 = problem default)")
	workers := flag.Int("workers", 0, "worker goroutines for all parallel kernels (0 = NumCPU, 1 = serial)")
	chemistry := flag.Bool("chem", true, "enable 12-species chemistry where the problem supports it")
	seed := flag.Int64("seed", 0, "IC random seed (0 = problem default)")
	solver := flag.String("solver", "", "hydro solver: ppm | fd (empty = problem default)")
	extras := map[string]float64{}
	flag.Func("p", "problem-specific knob key=value (repeatable, see README catalog)", func(s string) error {
		key, v, err := problems.ParseKnob(s)
		if err != nil {
			return err
		}
		extras[key] = v
		return nil
	})
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run (IC build + step loop) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	saveOut := flag.String("save", "", "write a self-describing snapshot here after the run")
	restart := flag.String("restart", "", "restart from this snapshot instead of building -problem")
	profileOut := flag.String("profile", "", "write a radial profile table to this file at the end")
	var outputs []analysis.OutputRequest
	flag.Func("output", "derived data product spec kind[,key=value...] (repeatable, see README \"Data products\")", func(s string) error {
		r, err := analysis.ParseOutputRequest(s)
		if err != nil {
			return err
		}
		outputs = append(outputs, r)
		return nil
	})
	outDir := flag.String("outdir", "products", "directory -output artifacts are written to")
	flag.Parse()

	if *list {
		// Specs iterates name-sorted, so -list (and the CI problems
		// matrix cut from it) is deterministic across runs.
		for _, spec := range problems.Specs() {
			fmt.Printf("%s\t%s\n", spec.Name, spec.Summary)
			if *long {
				fmt.Printf("\texercises: %s\n\texample:   %s\n", spec.Exercises, spec.Example)
				for _, k := range slices.Sorted(maps.Keys(spec.Knobs)) {
					fmt.Printf("\t-p %s=...  %s\n", k, spec.Knobs[k])
				}
			}
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var sim *core.Simulation
	var err error
	if *restart != "" {
		h, name, lerr := snapshot.Load(*restart)
		if lerr != nil {
			log.Fatal(lerr)
		}
		// Workers is a runtime knob of the machine that saved the
		// snapshot, not physics: reset to NumCPU for this host (an
		// explicit -workers below still wins).
		h.Cfg.Workers = 0
		// The snapshot header fixes the problem and grid geometry, but
		// explicitly passed physics/runtime flags still apply — the
		// paper's §4 restart-with-additional-levels workflow. Flags
		// that cannot apply to a restart are called out, not dropped
		// silently.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers":
				h.Cfg.Workers = *workers
			case "maxlevel":
				h.Cfg.MaxLevel = *maxLevel
			case "solver":
				s, serr := problems.ParseSolver(*solver)
				if serr != nil {
					log.Fatal(serr)
				}
				h.Cfg.Solver = s
			case "chem":
				if *chemistry && h.Cfg.NSpecies == 0 {
					log.Fatal("cannot enable chemistry: snapshot was saved without species fields")
				}
				h.Cfg.Chemistry = *chemistry
			case "problem", "rootn", "seed", "p":
				log.Printf("warning: -%s is fixed by the snapshot and ignored on restart", f.Name)
			}
		})
		sim = core.Resume(h, name)
		fmt.Printf("restarted %q from %s at t=%.5f\n", name, *restart, h.Time)
	} else {
		sim, err = core.New(*problem, func(o *problems.Opts) {
			// CLI flags override the spec defaults only when set.
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "rootn":
					o.RootN = *rootN
				case "maxlevel":
					o.MaxLevel = *maxLevel
				case "workers":
					o.Workers = *workers
				case "chem":
					o.Chemistry = *chemistry
				case "seed":
					o.Seed = *seed
				case "solver":
					o.Solver = *solver
				}
			})
			for k, v := range extras {
				if o.Extra == nil {
					o.Extra = map[string]float64{}
				}
				o.Extra[k] = v
			}
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Derived data products are evaluated through the same OutputPlan the
	// job service runs, so "-output projection,every=5" means exactly
	// what the HTTP API's outputs field means.
	plan, err := analysis.NewOutputPlan(outputs)
	if err != nil {
		log.Fatal(err)
	}
	if *restart != "" {
		plan.Prime(sim.H.Time) // continue time cadences from the snapshot's time
	}
	if len(outputs) > 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	writeArtifact := func(a analysis.Artifact) error {
		path := filepath.Join(*outDir, a.Name)
		if err := os.WriteFile(path, a.Data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  product %s (%d bytes)\n", path, len(a.Data))
		return nil
	}

	fmt.Printf("problem=%s rootN=%d maxLevel=%d grids=%d\n",
		sim.Problem, sim.H.Cfg.RootN, sim.H.Cfg.MaxLevel, sim.H.NumGrids())
	if _, err := sim.Run(context.Background(), core.RunOpts{MaxSteps: *steps, Observe: func(i core.StepInfo) error {
		fmt.Printf("step %3d  t=%.5f dt=%.2e  maxlevel=%d grids=%d  peak=%.4g\n",
			i.Step, i.Time, i.Dt, i.MaxLevel, i.NumGrids, sim.Sample().PeakRho)
		return plan.Step(sim.H, sim.Problem, i.Step, sim.H.Cfg.Workers, writeArtifact)
	}}); err != nil {
		log.Fatal(err)
	}
	if err := plan.Finish(sim.H, sim.Problem, *steps-1, sim.H.Cfg.Workers, writeArtifact); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println(sim.UsageTable())
	fmt.Println(perf.FormatOperatorTable(sim.H.Timing))
	fmt.Println(sim.FlopReport())
	fmt.Printf("SDR achieved: %.0f   grids created: %d   rebuilds: %d\n",
		sim.H.SpatialDynamicRange(), sim.H.Stats.GridsCreated, sim.H.Stats.RebuildCount)

	if *cpuProfile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
		fmt.Printf("cpu profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
	if *saveOut != "" {
		if err := snapshot.Save(*saveOut, sim.H, sim.Problem); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot written to %s\n", *saveOut)
	}
	if *profileOut != "" {
		pr, err := sim.RadialProfileAtPeak(24)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*profileOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		writeProfile(f, pr)
		fmt.Printf("profile written to %s\n", *profileOut)
	}
}

func writeProfile(f *os.File, pr *analysis.Profile) {
	fmt.Fprintf(f, "# r[box] density enclosed T[K] vr cs fH2 fHI\n")
	for b := range pr.R {
		fmt.Fprintf(f, "%e %e %e %e %e %e %e %e\n",
			pr.R[b], pr.Density[b], pr.Enclosed[b], pr.Temp[b],
			pr.Vr[b], pr.Cs[b], pr.H2Frac[b], pr.HIFrac[b])
	}
}
