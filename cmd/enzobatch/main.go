// Command enzobatch drives an N-job parameter sweep through the same
// scheduler that backs `enzogo serve`: every row of a sweep file becomes
// a sim job, the scheduler partitions the machine's par worker budget
// across the concurrent slots, identical rows coalesce onto one
// execution, and the results (hashes, timings, per-operator metrics) come
// back as a table plus an optional JSON report.
//
// A sweep file is JSON: an optional "defaults" request merged under every
// row, and the "jobs" rows themselves (fields as in sim.Request):
//
//	{
//	  "name": "sod solver matrix",
//	  "defaults": {"problem": "sod", "rootn": 16, "steps": 4},
//	  "jobs": [
//	    {"solver": "ppm"},
//	    {"solver": "fd"},
//	    {"solver": "ppm", "rootn": 32}
//	  ]
//	}
//
// Rows (or the defaults block) may declare derived data products with an
// "outputs" list — the same requests the HTTP API accepts — so a sweep
// collects projections, profiles or clump catalogs per job, not just
// hashes; -artifacts dumps every job's products under dir/<jobid>/. A
// row's non-empty list replaces the defaults' wholesale (an empty list
// cannot clear it — put product-free rows in a sweep without default
// outputs).
//
// With -data the sweep runs against a durable job store (the same
// layout `enzogo serve -data` uses): results persist across process
// restarts, so re-running a sweep — after a crash, an edit that adds
// rows, or on a store warmed by the service — answers already-completed
// rows as cache hits instead of recomputing them.
//
// With -server the sweep runs against a live `enzogo serve` instance
// over HTTP instead of an in-process scheduler. The full resolved row
// list is announced up front (POST /sweeps), so a `-speculate` server
// can pre-warm later rows on idle slots while the client trickles
// submissions in -stagger apart; rows the planner finished early come
// back as instant cache hits. The table's disp column shows how each
// row was answered — run (a fresh execution), coalesced, or cache — and
// the summary counts the cache hits that were pre-warmed speculatively.
//
// Rows are submitted shortest-predicted-first: the cost model (local
// store's, or the server's via the sweep announcement) estimates each
// row's runtime from the history of similar jobs, so on a warm store
// the cheap rows finish before the expensive ones start. Rows without
// history keep their file order — the sort is stable — and the table
// and JSON report always stay in file order.
//
// Usage:
//
//	enzobatch -f sweep.json -slots 4 -out results.json
//	enzobatch -f examples/sweeps/sedov_projections.json -artifacts products
//	enzobatch -f sweep.json -data /var/lib/enzogo   # re-runnable / warm-store
//	enzobatch -f sweep.json -server http://localhost:8080 -stagger 2s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// Sweep is the file format: defaults merged under every job row.
type Sweep struct {
	Name     string        `json:"name"`
	Defaults sim.Request   `json:"defaults"`
	Jobs     []sim.Request `json:"jobs"`
}

// Row pairs a sweep row with its outcome for the -out report.
type Row struct {
	Request sim.Request `json:"request"`
	// Disposition is how the scheduler answered the submission:
	// "scheduled" (a fresh execution), "coalesced" or "cache".
	Disposition string      `json:"disposition,omitempty"`
	Status      sim.Status  `json:"status"`
	Result      *sim.Result `json:"result,omitempty"`
	Error       string      `json:"error,omitempty"`
}

func main() {
	file := flag.String("f", "", "sweep file (JSON; required)")
	slots := flag.Int("slots", 2, "jobs evolving concurrently")
	workers := flag.Int("workers", 0, "total par worker budget partitioned across slots (0 = NumCPU)")
	out := flag.String("out", "", "write the full JSON report here")
	artifactDir := flag.String("artifacts", "", "write each job's derived-output artifacts under this directory")
	dataDir := flag.String("data", "", "durable job store directory: completed rows are cache hits on a re-run (share it with `enzogo serve -data`)")
	server := flag.String("server", "", "run the sweep against this `enzogo serve` base URL over HTTP (announces the rows via POST /sweeps first)")
	stagger := flag.Duration("stagger", 0, "with -server: pause this long between row submissions (the idle windows a -speculate server pre-warms in)")
	verbose := flag.Bool("v", false, "stream per-step progress lines (in-process mode only)")
	flag.Parse()
	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		log.Fatal(err)
	}
	var sweep Sweep
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sweep); err != nil {
		log.Fatalf("%s: %v", *file, err)
	}
	if len(sweep.Jobs) == 0 {
		log.Fatalf("%s: sweep has no jobs", *file)
	}

	name := sweep.Name
	if name == "" {
		name = *file
	}
	rows := make([]Row, len(sweep.Jobs))
	reqs := make([]sim.Request, len(sweep.Jobs))
	for i, over := range sweep.Jobs {
		req := sim.Merge(sweep.Defaults, over)
		reqs[i], rows[i].Request = req, req
	}

	var failed int
	var stats *sim.Stats
	if *server != "" {
		if *dataDir != "" {
			log.Fatal("enzobatch: -data and -server are mutually exclusive (the server owns its store)")
		}
		if *verbose {
			fmt.Println("(-v progress streams are not available with -server)")
		}
		failed = runRemote(*server, name, sweep, reqs, rows, *stagger, *artifactDir)
	} else {
		failed, stats = runLocal(name, sweep, reqs, rows, *slots, *workers, *dataDir, *artifactDir, *verbose)
	}

	// The summary is row-based in both modes: dispositions say how the
	// scheduler answered each submission, and a cache hit on a
	// speculative job is a row the planner pre-warmed before we asked.
	executed, coalesced, cached, prewarmed := 0, 0, 0, 0
	for i := range rows {
		switch rows[i].Disposition {
		case string(sim.Scheduled):
			executed++
		case string(sim.Coalesced):
			coalesced++
		case string(sim.CacheHit):
			cached++
			if rows[i].Status.Speculative {
				prewarmed++
			}
		}
	}
	fmt.Printf("\n%d rows: %d executed, %d coalesced, %d cache hits (%d pre-warmed speculatively), %d failed\n",
		len(rows), executed, coalesced, cached, prewarmed, failed)
	printKnobSummary(rows)

	if *out != "" {
		doc := map[string]any{"sweep": name, "rows": rows}
		if stats != nil {
			doc["stats"] = *stats
		}
		report, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(report, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// tableHeader prints the result table's column line.
func tableHeader() {
	fmt.Printf("%-3s %-16s %-10s %-9s %-9s %5s %10s %16s %5s %8s %8s\n",
		"#", "id", "problem", "state", "disp", "steps", "t", "hash", "arts", "wall[s]", "est[s]")
}

// printRow renders one finished row's table line.
func printRow(i int, r Row) {
	disp := r.Disposition
	switch disp {
	case string(sim.Scheduled):
		disp = "run"
	case "":
		disp = "-"
	}
	// The submit-time prediction rides on the status (and the JSON
	// report); "-" marks a row the model had no history for.
	est := "-"
	if r.Status.Estimate != nil && r.Status.Estimate.Samples > 0 {
		est = fmt.Sprintf("%.2f", r.Status.Estimate.Seconds)
	}
	if r.Result == nil {
		fmt.Printf("%-3d %-16s %-10s %-9s %-9s %s\n",
			i, r.Status.ID, r.Status.Problem, r.Status.State, disp, r.Error)
		return
	}
	fmt.Printf("%-3d %-16s %-10s %-9s %-9s %5d %10.5f %16s %5d %8.2f %8s\n",
		i, r.Status.ID, r.Status.Problem, r.Status.State, disp, r.Result.Steps, r.Result.Time,
		r.Result.Hash, r.Result.Artifacts, r.Result.Metrics.WallSeconds, est)
}

// runLocal drives the sweep through an in-process scheduler (optionally
// against a durable -data store) and fills rows in place.
func runLocal(name string, sweep Sweep, reqs []sim.Request, rows []Row, slots, workers int, dataDir, artifactDir string, verbose bool) (int, *sim.Stats) {
	cfg := sim.Config{
		MaxConcurrent: slots,
		TotalWorkers:  workers,
		// Retain every row: a sweep is exactly the workload where late
		// duplicates should hit earlier results.
		CacheSize:  2 * len(sweep.Jobs),
		QueueDepth: len(sweep.Jobs) + 1,
	}
	if dataDir != "" {
		store, err := diskstore.New(dataDir)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Store = store
		// Cache eviction is the store's retention policy: evicted jobs
		// are deleted from disk. A sweep-sized cache against a shared
		// serve store would wipe every prior result the moment recovery
		// overflows it, so a warm sweep never evicts — retention belongs
		// to the long-lived serve instance.
		cfg.CacheSize = 1 << 30
	}
	sched := sim.NewScheduler(cfg)
	defer sched.Close()
	if recovered, _, err := sched.RecoverState(); err != nil {
		log.Printf("warm store recovery: %v", err)
	} else if recovered > 0 {
		fmt.Printf("warm store %s: %d completed jobs recovered (matching rows will be cache hits)\n",
			dataDir, recovered)
	}

	fmt.Printf("sweep %q: %d jobs on %d slots × %d workers\n",
		name, len(sweep.Jobs), slots, sched.SlotWorkers())

	jobs := make([]*sim.Job, len(sweep.Jobs))
	costs := make([]float64, len(sweep.Jobs))
	order := make([]int, len(sweep.Jobs))
	for i, req := range reqs {
		order[i] = i
		// Shortest-predicted-first submission: against a warm store the
		// cost model has history for repeated shapes, and running cheap
		// rows first minimizes mean wait. Rows it knows nothing about
		// charge the queue's default (1s), so an all-cold sweep keeps
		// file order — the sort is stable and reporting stays in file
		// order regardless.
		costs[i] = 1
		if est, err := sched.Estimate(req); err == nil && est.Samples > 0 && est.Seconds > 0 {
			costs[i] = est.Seconds
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
	for _, i := range order {
		j, disp, err := sched.SubmitWithDisposition(reqs[i])
		if err != nil {
			log.Fatalf("job %d: %v", i, err)
		}
		jobs[i] = j
		rows[i].Disposition = string(disp)
		if verbose {
			go func(i int, j *sim.Job) {
				for p := range j.Watch() {
					fmt.Printf("  [%d %s] step %d t=%.5f dt=%.2e grids=%d\n",
						i, j.ID, p.Step, p.Time, p.Dt, p.NumGrids)
				}
			}(i, j)
		}
	}

	failed := 0
	tableHeader()
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		rows[i].Status = j.Status()
		if err != nil {
			rows[i].Error = err.Error()
			failed++
		} else {
			rows[i].Result = res
		}
		printRow(i, rows[i])
		if err == nil && artifactDir != "" {
			if err := dumpArtifacts(artifactDir, j); err != nil {
				log.Fatal(err)
			}
		}
	}
	stats := sched.Stats()
	return failed, &stats
}

// remote is a minimal client for the `enzogo serve` HTTP API.
type remote struct {
	base string
	hc   *http.Client
}

func (c *remote) url(path string) string { return strings.TrimRight(c.base, "/") + path }

// postJSON posts body as JSON and decodes the response into out (when
// non-nil); a >=400 status becomes an error carrying the body.
func (c *remote) postJSON(path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url(path), "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	return decodeResponse(path, resp, out)
}

// getJSON fetches path and decodes the JSON response into out.
func (c *remote) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.url(path))
	if err != nil {
		return err
	}
	return decodeResponse(path, resp, out)
}

// getBytes fetches path and returns the raw response body.
func (c *remote) getBytes(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// decodeResponse drains resp, turning >=400 statuses into errors and
// unmarshalling success bodies into out when non-nil.
func decodeResponse(path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// runRemote drives the sweep against a live service: announce the full
// row list (POST /sweeps) so a -speculate server can pre-warm rows on
// idle slots, then submit shortest-predicted-first with -stagger
// between rows — the idle windows a trickling client naturally leaves.
// The table prints in file order once every row has finished.
func runRemote(base, name string, sweep Sweep, reqs []sim.Request, rows []Row, stagger time.Duration, artifactDir string) int {
	c := &remote{base: base, hc: &http.Client{Timeout: 10 * time.Minute}}
	fmt.Printf("sweep %q: %d jobs against %s\n", name, len(reqs), base)

	costs := make([]float64, len(reqs))
	order := make([]int, len(reqs))
	for i := range reqs {
		costs[i], order[i] = 1, i
	}
	var announce sim.SweepResponse
	if err := c.postJSON("/sweeps", sim.SweepManifest{Name: name, Defaults: sweep.Defaults, Jobs: sweep.Jobs}, &announce); err != nil {
		// An older server without /sweeps still runs the sweep — just
		// without pre-warming or server-side estimates.
		log.Printf("sweep announce: %v (continuing without pre-warm)", err)
	} else {
		fmt.Printf("announced %d rows: %d accepted for pre-warm (speculate=%t)\n",
			announce.Rows, announce.Accepted, announce.Speculate)
		for _, r := range announce.Results {
			if r.Index >= 0 && r.Index < len(costs) && r.Estimate != nil && r.Estimate.Samples > 0 && r.Estimate.Seconds > 0 {
				costs[r.Index] = r.Estimate.Seconds
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })

	failed := 0
	for k, i := range order {
		if k > 0 && stagger > 0 {
			time.Sleep(stagger)
		}
		var sub sim.SubmitResponse
		if err := c.postJSON("/jobs", reqs[i], &sub); err != nil {
			rows[i].Error = err.Error()
			failed++
			continue
		}
		rows[i].Disposition = sub.Disposition
		st := sub.Status
		for st.State == "queued" || st.State == "running" {
			time.Sleep(100 * time.Millisecond)
			if err := c.getJSON("/jobs/"+st.ID, &st); err != nil {
				rows[i].Error = err.Error()
				break
			}
		}
		rows[i].Status = st
		switch {
		case rows[i].Error != "":
			failed++
		case st.State == "done":
			var res sim.Result
			if err := c.getJSON("/jobs/"+st.ID+"/result", &res); err != nil {
				rows[i].Error = err.Error()
				failed++
				continue
			}
			rows[i].Result = &res
			if artifactDir != "" {
				if err := fetchArtifacts(c, artifactDir, st.ID); err != nil {
					log.Fatal(err)
				}
			}
		default:
			rows[i].Error = st.Error
			failed++
		}
	}

	tableHeader()
	for i := range rows {
		printRow(i, rows[i])
	}
	return failed
}

// fetchArtifacts mirrors dumpArtifacts over HTTP: the artifact index
// plus each payload, written under dir/<jobid>/.
func fetchArtifacts(c *remote, dir, id string) error {
	var index sim.ArtifactIndex
	if err := c.getJSON("/jobs/"+id+"/artifacts", &index); err != nil {
		return err
	}
	if len(index.Artifacts) == 0 {
		return nil
	}
	jobDir := filepath.Join(dir, id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return err
	}
	for _, a := range index.Artifacts {
		data, err := c.getBytes("/jobs/" + id + "/artifacts/" + a.Name)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(jobDir, a.Name), data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("    %d artifacts -> %s\n", len(index.Artifacts), jobDir)
	return nil
}

// dumpArtifacts writes one completed job's retained data products under
// dir/<jobid>/, named as the artifact store names them. Duplicate rows
// coalesce onto one job ID, so they rewrite the same files with the same
// bytes.
func dumpArtifacts(dir string, j *sim.Job) error {
	arts := j.Artifacts().All()
	if len(arts) == 0 {
		return nil
	}
	jobDir := filepath.Join(dir, j.ID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return err
	}
	for _, a := range arts {
		if err := os.WriteFile(filepath.Join(jobDir, a.Name), a.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("    %d artifacts -> %s\n", len(arts), jobDir)
	return nil
}

// printKnobSummary groups completed rows by problem and shows which
// settings produced which hash — the at-a-glance view of a scan (two
// rows with the same label but different hashes should not happen, and
// identical hashes under different labels flag a knob with no effect).
func printKnobSummary(rows []Row) {
	type line struct{ knobs, hash string }
	byProblem := map[string][]line{}
	for _, r := range rows {
		if r.Result == nil {
			continue
		}
		byProblem[r.Request.Problem] = append(byProblem[r.Request.Problem], line{
			knobs: rowLabel(r.Request),
			hash:  r.Result.Hash,
		})
	}
	names := make([]string, 0, len(byProblem))
	for n := range byProblem {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s:\n", n)
		for _, l := range byProblem[n] {
			fmt.Printf("  %-40s -> %s\n", l.knobs, l.hash)
		}
	}
}

// rowLabel renders every request field that distinguishes sweep rows of
// one problem: the knobs plus any explicit grid/solver/step overrides.
func rowLabel(req sim.Request) string {
	label := problems.CanonicalKnobs(req.Knobs)
	if req.Solver != "" {
		label += " solver=" + req.Solver
	}
	if req.RootN != 0 {
		label += fmt.Sprintf(" rootn=%d", req.RootN)
	}
	if req.MaxLevel != nil {
		label += fmt.Sprintf(" maxlevel=%d", *req.MaxLevel)
	}
	if req.Steps != 0 {
		label += fmt.Sprintf(" steps=%d", req.Steps)
	}
	if req.Seed != nil {
		label += fmt.Sprintf(" seed=%d", *req.Seed)
	}
	if req.Chemistry != nil {
		label += fmt.Sprintf(" chem=%t", *req.Chemistry)
	}
	if req.Workers != 0 {
		label += fmt.Sprintf(" workers=%d", req.Workers)
	}
	if req.MaxTime != 0 {
		label += fmt.Sprintf(" maxtime=%g", req.MaxTime)
	}
	if len(req.Outputs) > 0 {
		label += fmt.Sprintf(" outputs=%d", len(req.Outputs))
	}
	return label
}
