package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/sim"
)

const enzogoBin = outDir + "/bin/enzogo"

// buildServer builds the program under test from the checkout's source.
func buildServer() error {
	cmd := exec.Command("go", "build", "-o", enzogoBin, "repro/cmd/enzogo")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build repro/cmd/enzogo: %w", err)
	}
	return nil
}

// server is one spawned `enzogo serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once Wait has returned
}

// startServer spawns `enzogo serve -data dir -slots N -checkpoint-every 2`
// on a free loopback port and returns once /healthz answers 200, with the
// time from spawn to that answer.
func startServer(client *http.Client, dir string, extra ...string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"serve", "-addr", addr, "-data", dir,
		"-slots", strconv.Itoa(parallelism()), "-checkpoint-every", "2"}, extra...)
	s := &server{cmd: exec.Command(enzogoBin, args...), base: "http://" + addr, exited: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("enzogo serve exited during start-up, see %s.log", dir)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("enzogo serve not healthy after 30 s, see %s.log", dir)
		}
	}
}

// kill ends the process the way a crash would and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop asks for a graceful drain and waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// removeData deletes a server's data directory and its log.
func removeData(dir string) {
	os.RemoveAll(dir)
	os.Remove(dir + ".log")
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}, Timeout: 60 * time.Second}
}

// getJSON GETs url and decodes a 200 reply into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetrics reads /metrics into name → value (labelled series keep
// their label text in the name).
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// finished is one completed op of a closed loop: when it ended, counted
// from the start of the timed phase, and how long it took.
type finished struct {
	at time.Duration
	ms float64
}

// sliceSeconds is the length of the slices a serve workload's timed phase
// is cut into.
const sliceSeconds = 2

// sliceMedians cuts the timed phase into 2 s slices, computes in each the
// throughput and the median latency of the ops that finished in it, and
// returns the medians over the slices. The host loses its CPUs for seconds
// at a time; a slice statistic keeps such a burst out of the result as long
// as most slices are clean, which a whole-phase mean does not. A slice's
// throughput is taken between its first and last completion, (k-1) ops in
// that time: with the ~25 jobs of a serve_cold slice, k/2 s would only ever
// read as a multiple of 0.5/s.
func sliceMedians(ops []finished, window time.Duration) (opsPerS, p50ms float64) {
	n := max(1, int(window.Seconds()/sliceSeconds))
	length := window / time.Duration(n)
	type slice struct {
		lat         []float64
		first, last time.Duration
	}
	slices := make([]slice, n)
	for _, f := range ops {
		i := int(f.at / length)
		if i >= n {
			continue // in flight at the deadline: belongs to no slice
		}
		sl := &slices[i]
		if len(sl.lat) == 0 || f.at < sl.first {
			sl.first = f.at
		}
		sl.last = max(sl.last, f.at)
		sl.lat = append(sl.lat, f.ms)
	}
	var rates, medians []float64
	for _, sl := range slices {
		if len(sl.lat) > 1 && sl.last > sl.first {
			rates = append(rates, float64(len(sl.lat)-1)/(sl.last-sl.first).Seconds())
			medians = append(medians, median(sl.lat))
		}
	}
	return median(rates), median(medians)
}

// jobOp is one cold operation as the client saw it: POST /jobs, follow the
// event stream to the terminal status, GET the result.
type jobOp struct {
	id          string
	disposition string
	submit      time.Duration
	follow      time.Duration
	fetch       time.Duration
	latency     time.Duration // POST sent → result body read
	result      sim.Result
}

// runJob performs one jobOp. With a tracer it records the job's spans
// under its job ID: the three round trips, and inside the event stream the
// evolve and analysis times the result's metrics report.
func runJob(client *http.Client, base string, req sim.Request, tr *tracer, parent int) (jobOp, error) {
	var op jobOp
	body, err := json.Marshal(req)
	if err != nil {
		return op, err
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return op, err
	}
	var sub struct {
		ID          string `json:"id"`
		Disposition string `json:"disposition"`
		Error       string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return op, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return op, fmt.Errorf("POST /jobs: %s: %s", resp.Status, sub.Error)
	}
	op.id, op.disposition = sub.ID, sub.Disposition

	resp, err = client.Get(base + "/jobs/" + op.id + "/events")
	if err != nil {
		return op, err
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	t2 := time.Now()
	if err := sc.Err(); err != nil {
		return op, err
	}
	var final struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(last, &final); err != nil {
		return op, fmt.Errorf("job %s: event stream ended with %q", op.id, last)
	}
	if final.State != "done" {
		return op, fmt.Errorf("job %s ended %s: %s", op.id, final.State, final.Error)
	}

	if err := getJSON(client, base+"/jobs/"+op.id+"/result", &op.result); err != nil {
		return op, err
	}
	t3 := time.Now()
	op.submit, op.follow, op.fetch, op.latency = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	if op.result.Hash == "" {
		return op, fmt.Errorf("job %s: result without a hash", op.id)
	}

	if tr != nil {
		job := tr.record(parent, "job", op.id, t0, t3)
		tr.record(job, "POST /jobs", op.id, t0, t1)
		events := tr.record(job, "GET /jobs/{id}/events", op.id, t1, t2)
		tr.record(job, "GET /jobs/{id}/result", op.id, t2, t3)
		tr.synth(events, []part{
			{"sim.evolve", seconds(op.result.Metrics.WallSeconds)},
			{"analysis", seconds(op.result.Metrics.AnalysisSeconds)},
		})
	}
	return op, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// directHash evolves a job's configuration in-process through core, the
// way the golden tests do; the service's answer must have the same bits.
func directHash(req sim.Request) (string, error) {
	s, err := core.New(req.Problem, func(o *problems.Opts) {
		o.RootN, o.MaxLevel, o.Workers = req.RootN, *req.MaxLevel, 1
		o.Extra = req.Knobs
	})
	if err != nil {
		return "", err
	}
	s.RunSteps(req.Steps)
	return s.H.ChecksumHex(), nil
}

// artifactRef is one row of a job's artifact index.
type artifactRef struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Size int    `json:"size"`
	Hash string `json:"content_hash"`
}

func artifactIndex(client *http.Client, base, id string) ([]artifactRef, error) {
	var idx struct {
		Artifacts []artifactRef `json:"artifacts"`
	}
	err := getJSON(client, base+"/jobs/"+id+"/artifacts", &idx)
	return idx.Artifacts, err
}

// verifyArtifacts fetches every artifact of a job and checks each body
// against its content hash.
func verifyArtifacts(client *http.Client, base, id string) error {
	arts, err := artifactIndex(client, base, id)
	if err != nil {
		return err
	}
	if len(arts) == 0 {
		return fmt.Errorf("job %s retained no artifacts", id)
	}
	for _, a := range arts {
		resp, err := client.Get(base + "/jobs/" + id + "/artifacts/" + a.Name)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if sum := sha256.Sum256(body); resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:]) != a.Hash {
			return fmt.Errorf("job %s artifact %s: %s, body does not hash to content_hash", id, a.Name, resp.Status)
		}
	}
	return nil
}

// Job sizes of the serve workloads: small on purpose, so that the service
// around the engine — not the engine — is what the job costs.
const (
	coldSedovSteps   = 6
	coldPancakeSteps = 4
	hotJobs          = 24
	hotSteps         = 4
	setupRepeats     = 9
)

// coldRequest is the i-th distinct job of serve_cold: three in four are
// sedov 16³ maxlevel 1 with a unique blast energy, one in four a pancake
// 16³ with a unique collapse epoch; a final 128-px projection plus a slice
// every 2 steps; two tenants alternating.
func coldRequest(rng *rand.Rand, i int) sim.Request {
	req := sim.Request{
		Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: coldSedovSteps,
		Knobs:  map[string]float64{"e0": 8 + 4*rng.Float64()},
		Tenant: []string{"tenant-a", "tenant-b"}[i%2],
		Outputs: []analysis.OutputRequest{
			{Kind: analysis.KindProjection, Field: "rho", N: 128},
			{Kind: analysis.KindSlice, Every: 2},
		},
	}
	if i%4 == 3 {
		req.Problem, req.MaxLevel, req.Steps = "pancake", sim.Int(0), coldPancakeSteps
		req.Knobs = map[string]float64{"acollapse": 0.2 * (1 + 0.05*rng.Float64())}
	}
	return req
}

// serveCold is the write path: every job is new, so nothing is ever a
// cache hit and each one pays resolve, admission, queueing, evolution,
// analysis and the durable store's fsynced writes.
type serveCold struct{}

func (serveCold) execute(o options) (*record, error) {
	if err := buildServer(); err != nil {
		return nil, err
	}
	rec := newRecord("serve_cold", o)
	rec.Params = map[string]any{
		"jobs": "distinct, closed loop", "sedov": "16^3 maxlevel 1", "sedov_steps": coldSedovSteps,
		"pancake": "16^3 maxlevel 0", "pancake_steps": coldPancakeSteps, "pancake_share": 0.25,
		"outputs": "projection n=128 at end + slice every 2", "checkpoint_every": 2, "setup_repeats": setupRepeats,
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up, repeated: spawn on an empty data directory → /healthz 200.
	var srv *server
	var dir string
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.kill()
			removeData(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(outDir, "data-cold-"); err != nil {
			return nil, err
		}
		var took time.Duration
		if srv, took, err = startServer(client, dir); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer removeData(dir)
	defer func() { srv.stop() }() // for the error paths; stopping twice is harmless

	before, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}

	// Generated before the clock starts; far more than any host finishes.
	rng := rand.New(rand.NewSource(o.seed))
	reqs := make([]sim.Request, 8192)
	for i := range reqs {
		reqs[i] = coldRequest(rng, i)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	type done struct {
		req    sim.Request
		op     jobOp
		at     time.Duration // completion, from the start of the timed phase
		traced bool
	}
	var (
		mu        sync.Mutex
		ops       []done
		attempted int
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	start := time.Now()
	window := seconds(o.seconds)
	for c := 0; c < parallelism(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				// A traced run records spans only in the second half of its
				// window; the first half is the untraced reference for the
				// tracing overhead.
				var optr *tracer
				if time.Since(start) >= window/2 {
					optr = tr
				}
				op, err := runJob(client, srv.base, reqs[i], optr, 0)
				mu.Lock()
				attempted++
				switch {
				case err != nil:
					rec.fail(err.Error())
				case op.disposition != "scheduled":
					rec.fail(fmt.Sprintf("job %s: disposition %q, want scheduled", op.id, op.disposition))
				default:
					ops = append(ops, done{reqs[i], op, time.Since(start), optr != nil})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rec.Attempted = attempted
	if len(ops) == 0 {
		return nil, errors.New("no job succeeded: " + strings.Join(rec.Notes, "; "))
	}

	after, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	var health struct {
		Samples float64 `json:"costmodel_samples"`
	}
	if err := getJSON(client, srv.base+"/healthz", &health); err != nil {
		return nil, err
	}

	// Correctness: the last five jobs (still retained by the result cache)
	// are re-evolved in-process and must give the same bits; every one of
	// their artifact bodies must hash to its content hash.
	rec.Checksums = map[string]string{}
	for _, d := range ops[max(0, len(ops)-5):] {
		rec.Attempted++
		direct, err := directHash(d.req)
		if err == nil && direct != d.op.result.Hash {
			err = fmt.Errorf("job %s: service hash %s, direct run %s", d.op.id, d.op.result.Hash, direct)
		}
		if err == nil {
			err = verifyArtifacts(client, srv.base, d.op.id)
		}
		if err != nil {
			rec.fail(err.Error())
		}
		rec.Checksums[d.op.id] = d.op.result.Hash
	}
	rss := peakRSSMiB(srv.cmd.Process.Pid)
	srv.stop()

	var latency, submit, evolve, analysisMS, tax, fetch []float64
	var tracedLat, untracedLat []float64
	var timeline []finished
	for _, d := range ops {
		lat := ms(d.op.latency)
		timeline = append(timeline, finished{d.at, lat})
		if d.traced {
			tracedLat = append(tracedLat, lat)
		} else {
			untracedLat = append(untracedLat, lat)
		}
		ev, an := 1e3*d.op.result.Metrics.WallSeconds, 1e3*d.op.result.Metrics.AnalysisSeconds
		latency = append(latency, lat)
		submit = append(submit, ms(d.op.submit))
		evolve = append(evolve, ev)
		analysisMS = append(analysisMS, an)
		tax = append(tax, lat-ev-an)
		fetch = append(fetch, us(d.op.fetch))
	}
	m := rec.Metrics
	rec.Samples = len(ops)
	if !o.trace {
		m["setup_s"] = median(setups)
		m["ops_per_s"], m["op_p50_ms"] = sliceMedians(timeline, window)
		m["wall_s"] = ratio(100, m["ops_per_s"]) // seconds per 100 jobs
		m["peak_rss_mb"] = rss
		return rec, nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	m["sim.submit_ms_p50"] = median(submit)
	m["sim.submit_ms_p95"] = percentile(submit, 95)
	m["sim.evolve_ms_p50"] = median(evolve)
	m["sim.analysis_ms_p50"] = median(analysisMS)
	m["sim.service_tax_ms_p50"] = median(tax)
	m["sim.result_fetch_us_p50"] = median(fetch)
	m["sim.job_latency_ms_p90"] = percentile(latency, 90)
	m["sim.job_latency_ms_p95"] = percentile(latency, 95)
	m["sim.executed"] = delta("sim_jobs_executed_total")
	m["sim.cache_hits"] = delta("sim_jobs_cache_hits_total")
	m["sim.coalesced"] = delta("sim_jobs_coalesced_total")
	m["sim.failed"] = delta("sim_jobs_failed_total")
	m["sim.checkpoints_written"] = delta("sim_checkpoints_written_total")
	m["sim.admission_rejected"] = delta("sim_admission_rejected_total")
	m["sim.useful_ratio"] = ratio(delta("sim_jobs_executed_total"), delta("sim_jobs_submitted_total"))
	m["sim.blobcache.dedupe_mb"] = delta("sim_store_dedupe_bytes_total") / mib
	m["costmodel.samples"] = health.Samples
	m["costmodel.error_ratio_mean"] = ratio(after["sim_estimate_error_ratio_sum"], after["sim_estimate_error_ratio_count"])
	m["diskstore.blob_mb"] = after["sim_store_blob_bytes"] / mib
	m["diskstore.checkpoint_mb"] = after["sim_store_checkpoint_bytes"] / mib
	m["diskstore.bytes_per_job"] = ratio(after["sim_store_blob_bytes"], after["sim_jobs_cached"])

	m["bench.trace_overhead_ratio"] = ratio(median(tracedLat), median(untracedLat))
	if err := probeDiskstore(m); err != nil {
		return nil, err
	}
	if err := probeRecover(dir, m); err != nil {
		return nil, err
	}
	if err := probePeer(o.seed, m); err != nil {
		return nil, err
	}
	return rec, tr.write(tracePath("serve_cold"))
}

// hotRequest is the i-th populated job of serve_hot: a tiny evolution that
// leaves a 512-px tiled projection (a ~350 KB blob) and two slices.
func hotRequest(rng *rand.Rand) sim.Request {
	return sim.Request{
		Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: hotSteps,
		Knobs: map[string]float64{"e0": 8 + 4*rng.Float64()},
		Outputs: []analysis.OutputRequest{
			{Kind: analysis.KindPyramid, Field: "rho", N: 512, NSamp: 4},
			{Kind: analysis.KindSlice, Every: 2},
		},
	}
}

// The request mix of serve_hot, in percent: 40 duplicate submissions and
// 60 artifact reads, twelve of each kind.
const (
	opCacheHit = iota
	opReadFull
	opReadRange
	opRead304
	opReadTile
	opReadHead
	nOpKinds
)

var opNames = [nOpKinds]string{"POST /jobs (duplicate)", "GET artifact", "GET artifact Range",
	"GET artifact If-None-Match", "GET artifact tile", "HEAD artifact"}

func drawOpKind(rng *rand.Rand) int {
	if p := rng.Intn(100); p >= 40 {
		return opReadFull + (p-40)/12
	}
	return opCacheHit
}

const rangeBytes = 64 << 10

// hotJob is what the read path needs to know about one populated job.
type hotJob struct {
	id      string
	body    []byte // the submission, resent verbatim as the duplicate
	arts    []artifactRef
	pyramid artifactRef
}

// serveHot is the read path: the same service and store, after a restart,
// answering duplicate submissions from the recovered result cache and
// artifact reads through a hot tier half the size of the working set.
type serveHot struct{}

func (serveHot) execute(o options) (*record, error) {
	if err := buildServer(); err != nil {
		return nil, err
	}
	rec := newRecord("serve_hot", o)
	rec.Params = map[string]any{
		"jobs": hotJobs, "job": "sedov 16^3 maxlevel 1", "steps": hotSteps,
		"outputs": "pyramid n=512 nsamp=4 + slice every 2", "hot_bytes": "half the artifact working set",
		"mix": "40% duplicate POST, 12% each full GET / 64 KiB Range / If-None-Match / tile / HEAD", "zipf_s": 1.1,
		"setup_repeats": setupRepeats,
	}
	client := newClient()
	defer client.CloseIdleConnections()
	dir, err := os.MkdirTemp(outDir, "data-hot-")
	if err != nil {
		return nil, err
	}
	defer removeData(dir)

	// Populate (untimed, reported as bench.populate_s): a first server
	// writes the jobs the timed phase reads.
	srv, _, err := startServer(client, dir)
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }()
	rng := rand.New(rand.NewSource(o.seed))
	jobs := make([]hotJob, hotJobs)
	t0 := time.Now()
	var workingSet int64
	rec.Checksums = map[string]string{}
	for i := range jobs {
		req := hotRequest(rng)
		op, err := runJob(client, srv.base, req, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		j := hotJob{id: op.id}
		if j.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if j.arts, err = artifactIndex(client, srv.base, op.id); err != nil {
			return nil, err
		}
		for _, a := range j.arts {
			workingSet += int64(a.Size)
			if a.Kind == string(analysis.KindPyramid) {
				j.pyramid = a
			}
		}
		if j.pyramid.Size < rangeBytes {
			return nil, fmt.Errorf("populate: job %s has no pyramid of at least %d bytes", op.id, rangeBytes)
		}
		jobs[i] = j
		rec.Checksums[op.id] = op.result.Hash
	}
	populate := time.Since(t0)

	// Set-up, repeated: kill the server and respawn it on the same data
	// directory → recovered and /healthz 200.
	hotBytes := strconv.FormatInt(workingSet/2, 10)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		srv.kill()
		respawned, took, err := startServer(client, dir, "-hot-bytes", hotBytes)
		if err != nil {
			return nil, err
		}
		srv = respawned
		setups = append(setups, took.Seconds())
	}
	var health struct {
		Recovered int `json:"jobs_recovered"`
	}
	if err := getJSON(client, srv.base+"/healthz", &health); err != nil {
		return nil, err
	}
	if health.Recovered != hotJobs {
		return nil, fmt.Errorf("respawn recovered %d jobs, want %d", health.Recovered, hotJobs)
	}

	h := &hotRun{client: client, base: srv.base, jobs: jobs, verified: map[string]bool{}}
	// First touch of every pyramid after the respawn: each is a disk read.
	// It also leaves the hot tier full, which is the state the timed phase
	// should start from.
	var cold []float64
	for i := range jobs {
		d, err := h.do(hotOp{kind: opReadFull, job: i, art: jobs[i].pyramid})
		rec.Attempted++
		if err != nil {
			rec.fail(err.Error())
		}
		cold = append(cold, us(d))
	}

	before, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	type sample struct {
		kind   int
		d      time.Duration
		at     time.Duration // completion, from the start of the timed phase
		traced bool
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	window := seconds(o.seconds)
	for c := 0; c < parallelism(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(o.seed*1000 + int64(c)))
			zipf := rand.NewZipf(crng, 1.1, 1, hotJobs-1)
			var mine []sample
			var failures []string
			for time.Since(start) < window {
				op := h.draw(crng, zipf)
				// As in serve_cold: spans in the second half of a traced run.
				traced := o.trace && time.Since(start) >= window/2
				t0 := time.Now()
				d, err := h.do(op)
				if err != nil {
					failures = append(failures, err.Error())
					continue
				}
				if traced {
					tr.record(0, opNames[op.kind], jobs[op.job].id, t0, t0.Add(d))
				}
				mine = append(mine, sample{op.kind, d, time.Since(start), traced})
			}
			mu.Lock()
			samples = append(samples, mine...)
			rec.Attempted += len(mine)
			for _, f := range failures {
				rec.Attempted++
				rec.fail(f)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	after, err := scrapeMetrics(client, srv.base)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMiB(srv.cmd.Process.Pid)
	srv.stop()
	if len(samples) == 0 {
		return nil, errors.New("no request succeeded: " + strings.Join(rec.Notes, "; "))
	}

	var hits, reads, tracedLat, untracedLat []float64
	var timeline []finished
	byKind := make([][]float64, nOpKinds)
	for _, s := range samples {
		timeline = append(timeline, finished{s.at, ms(s.d)})
		if s.traced {
			tracedLat = append(tracedLat, ms(s.d))
		} else {
			untracedLat = append(untracedLat, ms(s.d))
		}
		byKind[s.kind] = append(byKind[s.kind], us(s.d))
		if s.kind == opCacheHit {
			hits = append(hits, us(s.d))
		} else {
			reads = append(reads, us(s.d))
		}
	}
	m := rec.Metrics
	rec.Samples = len(samples)
	if !o.trace {
		m["setup_s"] = median(setups)
		m["ops_per_s"], m["op_p50_ms"] = sliceMedians(timeline, window)
		m["wall_s"] = ratio(10000, m["ops_per_s"]) // seconds per 10 000 requests
		m["peak_rss_mb"] = rss
		return rec, nil
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	m["bench.populate_s"] = populate.Seconds()
	m["sim.executed"] = delta("sim_jobs_executed_total")
	m["sim.cache_hits"] = delta("sim_jobs_cache_hits_total")
	m["sim.coalesced"] = delta("sim_jobs_coalesced_total")
	m["sim.failed"] = delta("sim_jobs_failed_total")
	m["sim.useful_ratio"] = ratio(delta("sim_jobs_cache_hits_total"), float64(len(hits)))
	m["sim.http.cache_hit_us_p50"] = median(hits)
	m["sim.http.cache_hit_us_p95"] = percentile(hits, 95)
	m["sim.http.cache_hit_us_p99"] = percentile(hits, 99)
	m["sim.http.read_us_p50"] = median(reads)
	m["sim.http.read_us_p95"] = percentile(reads, 95)
	m["sim.http.read_us_p99"] = percentile(reads, 99)
	m["sim.http.read_full_us_p50"] = median(byKind[opReadFull])
	m["sim.http.read_range_us_p50"] = median(byKind[opReadRange])
	m["sim.http.read_304_us_p50"] = median(byKind[opRead304])
	m["sim.http.read_tile_us_p50"] = median(byKind[opReadTile])
	m["sim.http.read_head_us_p50"] = median(byKind[opReadHead])
	m["sim.http.read_cold_us_p50"] = median(cold)
	m["sim.http.bytes_served"] = delta("sim_artifact_bytes_served_total")
	m["sim.http.not_modified"] = delta("sim_artifact_not_modified_total")
	hitsN, missesN := delta("sim_artifact_cache_hits_total"), delta("sim_artifact_cache_misses_total")
	m["sim.blobcache.hit_ratio"] = ratio(hitsN, hitsN+missesN)
	m["sim.blobcache.evictions"] = delta("sim_artifact_cache_evictions_total")
	m["sim.blobcache.disk_reads"] = delta("sim_artifact_disk_reads_total")
	m["sim.blobcache.hot_mb"] = after["sim_hot_tier_bytes"] / mib
	m["diskstore.blob_mb"] = after["sim_store_blob_bytes"] / mib
	m["diskstore.bytes_per_job"] = ratio(after["sim_store_blob_bytes"], hotJobs)
	m["bench.trace_overhead_ratio"] = ratio(median(tracedLat), median(untracedLat))

	if err := probeCacheHit(m); err != nil {
		return nil, err
	}
	if err := probeRecover(dir, m); err != nil {
		return nil, err
	}
	return rec, tr.write(tracePath("serve_hot"))
}

// hotOp is one generated request of serve_hot.
type hotOp struct {
	kind    int
	job     int
	art     artifactRef
	z, x, y int // tile coordinates
	offset  int // Range start
}

// hotRun holds what the serve_hot clients share.
type hotRun struct {
	client *http.Client
	base   string
	jobs   []hotJob

	mu       sync.Mutex
	verified map[string]bool // content hashes whose body has been checked
}

// draw generates the next request: a kind from the mix, a job by Zipf
// popularity, and the artifact, tile or byte range the kind needs.
func (h *hotRun) draw(rng *rand.Rand, zipf *rand.Zipf) hotOp {
	op := hotOp{kind: drawOpKind(rng), job: int(zipf.Uint64())}
	j := h.jobs[op.job]
	switch op.kind {
	case opReadFull, opRead304, opReadHead:
		op.art = j.arts[rng.Intn(len(j.arts))]
	case opReadRange:
		op.art = j.pyramid
		op.offset = rng.Intn(op.art.Size - rangeBytes + 1)
	case opReadTile:
		op.art = j.pyramid
		op.z = rng.Intn(analysis.PyramidLevels(512, analysis.PyramidTileSize))
		side := 512 / analysis.PyramidTileSize >> op.z
		op.x, op.y = rng.Intn(side), rng.Intn(side)
	}
	return op
}

// do performs one request, checks the reply and returns the round-trip
// time up to the last body byte. A wrong status, disposition, length or
// validator is an error; every distinct artifact body is hashed against
// its content hash the first time it is read in full.
func (h *hotRun) do(op hotOp) (time.Duration, error) {
	j := h.jobs[op.job]
	url := h.base + "/jobs/" + j.id + "/artifacts/" + op.art.Name
	var req *http.Request
	var err error
	want, wantLen := http.StatusOK, op.art.Size
	switch op.kind {
	case opCacheHit:
		req, err = http.NewRequest(http.MethodPost, h.base+"/jobs", bytes.NewReader(j.body))
		wantLen = -1
	case opReadFull:
		req, err = http.NewRequest(http.MethodGet, url, nil)
	case opReadRange:
		req, err = http.NewRequest(http.MethodGet, url, nil)
		if err == nil {
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", op.offset, op.offset+rangeBytes-1))
		}
		want, wantLen = http.StatusPartialContent, rangeBytes
	case opRead304:
		req, err = http.NewRequest(http.MethodGet, url, nil)
		if err == nil {
			req.Header.Set("If-None-Match", `"`+op.art.Hash+`"`)
		}
		want, wantLen = http.StatusNotModified, 0
	case opReadTile:
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/%d/%d/%d", url, op.z, op.x, op.y), nil)
		wantLen = -1
	case opReadHead:
		req, err = http.NewRequest(http.MethodHead, url, nil)
		wantLen = 0
	}
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != want || (wantLen >= 0 && len(body) != wantLen) {
		return d, fmt.Errorf("%s %s: %s with %d bytes, want %d with %d", opNames[op.kind], j.id, resp.Status, len(body), want, wantLen)
	}
	switch op.kind {
	case opCacheHit:
		var sub struct {
			Disposition string `json:"disposition"`
		}
		if err := json.Unmarshal(body, &sub); err != nil || sub.Disposition != "cache" {
			return d, fmt.Errorf("duplicate of job %s: disposition %q, want cache", j.id, sub.Disposition)
		}
	case opReadFull:
		if etag := resp.Header.Get("ETag"); etag != `"`+op.art.Hash+`"` {
			return d, fmt.Errorf("artifact %s of job %s: ETag %s, want the content hash", op.art.Name, j.id, etag)
		}
		h.mu.Lock()
		seen := h.verified[op.art.Hash]
		h.verified[op.art.Hash] = true
		h.mu.Unlock()
		if !seen {
			if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != op.art.Hash {
				return d, fmt.Errorf("artifact %s of job %s: body does not hash to content_hash", op.art.Name, j.id)
			}
		}
	case opReadTile:
		if !bytes.HasPrefix(body, []byte("P5")) {
			return d, fmt.Errorf("tile %d/%d/%d of job %s is not a PGM", op.z, op.x, op.y, j.id)
		}
	case opReadHead:
		if resp.ContentLength != int64(op.art.Size) {
			return d, fmt.Errorf("HEAD %s of job %s: Content-Length %d, want %d", op.art.Name, j.id, resp.ContentLength, op.art.Size)
		}
	}
	return d, nil
}
