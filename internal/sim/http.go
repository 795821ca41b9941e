package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/problems"
)

// Handler exposes the scheduler as an HTTP/JSON API (`enzogo serve`):
//
//	POST   /jobs             submit a Request; identical configs coalesce
//	GET    /jobs             list retained jobs in (submit time, id) order
//	                         (?status= filter, ?limit=/?offset= pagination)
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result the completed Result (409 until done)
//	GET    /jobs/{id}/events per-step progress as streamed NDJSON
//	GET    /jobs/{id}/artifacts         derived-output index (JSON)
//	GET    /jobs/{id}/artifacts/events  artifact-ready stream (NDJSON)
//	GET    /jobs/{id}/artifacts/{name}  one artifact body (PGM/PNG/JSON/…)
//	GET    /jobs/{id}/artifacts/{name}/{z}/{x}/{y}  one pyramid tile (PGM)
//	DELETE /jobs/{id}        cancel
//	POST   /sweeps           announce a sweep's rows for speculative pre-warming
//	GET    /tenants          per-tenant historical spend (demand + speculative)
//	GET    /problems         the registered problem catalog
//	GET    /healthz          liveness + uptime
//	GET    /metrics          scheduler counters, Prometheus text format
//
// Artifact bodies are served read-optimized: a strong ETag (the
// payload's content hash) with If-None-Match short-circuiting to 304
// before any payload fetch, HEAD answered from metadata alone, byte
// Range requests (206/416) via http.ServeContent, and Cache-Control
// that marks terminal jobs' artifacts immutable — so a CDN or a million
// polling readers cost the origin almost nothing.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts", s.handleArtifactIndex)
	mux.HandleFunc("GET /jobs/{id}/artifacts/events", s.handleArtifactEvents)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}/{z}/{x}/{y}", s.handleArtifactTile)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /sweeps", s.handleSweep)
	mux.HandleFunc("GET /tenants", s.handleTenants)
	mux.HandleFunc("GET /problems", handleProblems)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// SubmitResponse is the POST /jobs payload: the job's status plus how
// the submission was satisfied ("scheduled", "coalesced" onto a live
// duplicate, or answered from "cache").
type SubmitResponse struct {
	Status
	Disposition string `json:"disposition"`
}

// maxRequestBody bounds a POST /jobs or /sweeps payload; requests are
// rejected before anything oversized is buffered into memory.
const maxRequestBody = 1 << 20

// readBody reads r's body through a limit-byte bound. On failure it
// answers the request (see badBody) and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		badBody(w, err, what)
		return nil, false
	}
	return body, true
}

// decodeBody decodes the JSON value at the head of r's body, read
// through a limit-byte bound, into v, rejecting unknown fields when
// strict. On failure it answers the request (see badBody) and returns
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, strict bool, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		badBody(w, err, what)
		return false
	}
	return true
}

// badBody answers a request whose bounded body could not be read or
// decoded: 413 when it exceeded its bound, 400 otherwise.
func badBody(w http.ResponseWriter, err error, what string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, maxRequestBody, "request body", true, &req) {
		return
	}
	j, disp, err := s.SubmitWithDisposition(req)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err) // backpressure: retry later
		return
	case errors.Is(err, ErrStore):
		writeError(w, http.StatusInternalServerError, err) // durability defect, not a bad request
		return
	case err != nil:
		var adm *AdmissionError
		if errors.As(err, &adm) {
			// Admission rejection carries the estimate that tripped the
			// bound, so the client can see how far over it was (and
			// whether shrinking the request would admit it).
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":           adm.Error(),
				"estimate":        adm.Estimate,
				"max_job_seconds": adm.Limit,
			})
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if disp == CacheHit {
		code = http.StatusOK // the result already exists
	}
	writeJSON(w, code, SubmitResponse{Status: j.Status(), Disposition: string(disp)})
}

// handleList serves the retained job table with optional filtering and
// pagination for large (or freshly restored) tables: ?status= keeps only
// jobs in that lifecycle state (queued|running|done|failed|cancelled),
// ?offset= skips that many matching rows, and ?limit= caps the rows
// returned (0 = no cap). The response stays a bare JSON array;
// X-Total-Count carries the matching row count before pagination.
//
// Rows are sorted by (submit time, id) — a documented, stable key — so
// ?offset= pages cannot shuffle as jobs change state between requests:
// the raw retention order moves a job to the back when a failed
// configuration is resubmitted, which would make offset-based pages skip
// or duplicate rows mid-walk.
func (s *Scheduler) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wantState := ""
	if v := q.Get("status"); v != "" {
		ok := false
		for st := Queued; st <= Cancelled; st++ {
			if st.String() == v {
				ok = true
				break
			}
		}
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown status %q (want queued|running|done|failed|cancelled)", v))
			return
		}
		wantState = v
	}
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit: %w", err))
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad offset: %w", err))
		return
	}

	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if wantState != "" && st.State != wantState {
			continue
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b Status) int { return submitOrder(a.SubmittedAt, a.ID, b.SubmittedAt, b.ID) })
	total := len(out)
	if offset > len(out) {
		offset = len(out)
	}
	out = out[offset:]
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	// Queue-pressure headers so a poller sees the dispatch backlog
	// without a second request: total depth, and the per-tenant
	// breakdown as sorted tenant=count pairs.
	depth, perTenant := s.QueueStats()
	w.Header().Set("X-Queue-Depth", strconv.Itoa(depth))
	if len(perTenant) > 0 {
		names := make([]string, 0, len(perTenant))
		for name := range perTenant {
			names = append(names, name)
		}
		sort.Strings(names)
		pairs := make([]string, len(names))
		for i, name := range names {
			pairs[i] = name + "=" + strconv.Itoa(perTenant[name])
		}
		w.Header().Set("X-Tenant-Queued", strings.Join(pairs, ","))
	}
	writeJSON(w, http.StatusOK, out)
}

// queryInt parses a non-negative integer query parameter, empty = def.
func queryInt(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("%d must be >= 0", n)
	}
	return n, nil
}

func (s *Scheduler) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Scheduler) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Scheduler) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// streamNDJSON writes every value arriving on ch as one line of
// newline-delimited JSON, flushed as it is written (and once up front, to
// commit the header even if nothing ever arrives), until ch closes — then
// last, if given, supplies a final line — or the client goes away.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, ch <-chan T, last func() any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	flush()
	for {
		select {
		case v, open := <-ch:
			if !open {
				if last != nil {
					enc.Encode(last())
					flush()
				}
				return
			}
			enc.Encode(v)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleEvents streams the job's progress as newline-delimited JSON, one
// object per completed root step, ending with the job's final status.
func (s *Scheduler) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		watch := j.Watch()
		defer j.Unwatch(watch) // a disconnecting client must not leak its subscription
		streamNDJSON(w, r, watch, func() any { return j.Status() })
	}
}

// handleArtifactIndex lists the job's retained derived-output products.
func (s *Scheduler) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Artifacts().Index())
	}
}

// etagMatch reports whether an If-None-Match header matches a strong
// ETag: "*", or any member of its comma-separated list (weak-comparison,
// so W/ prefixes are ignored — correct for If-None-Match per RFC 9110).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// artifactCacheControl is the Cache-Control policy of artifact bodies:
// a terminal job's artifacts can never change again (and their ETag is
// the content hash), so clients and CDNs may cache them forever; while
// the job still runs a resume could replace a name, so clients must
// revalidate — which the ETag makes a free 304.
func artifactCacheControl(j *Job) string {
	if j.State().terminal() {
		return "public, max-age=31536000, immutable"
	}
	return "no-cache"
}

// countingWriter tallies body bytes for the sim_artifact_bytes_served
// counter (headers excluded; 304/HEAD responses count zero).
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// openArtifact is the shared front half of the artifact body handlers:
// resolve the job and metadata row, set the caching headers, and answer
// If-None-Match with 304 — all before the payload is touched, so
// revalidation never costs a blob fetch. It reports handled=true when
// the response was already written.
func (s *Scheduler) openArtifact(w http.ResponseWriter, r *http.Request) (j *Job, m ArtifactMeta, etag string, handled bool) {
	j, ok := s.job(w, r)
	if !ok {
		return nil, ArtifactMeta{}, "", true
	}
	name := r.PathValue("name")
	m, ok = j.Artifacts().Stat(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s has no artifact %q (it may not be ready, or was evicted)", j.ID, name))
		return nil, ArtifactMeta{}, "", true
	}
	etag = `"` + m.Hash + `"`
	if z := r.PathValue("z"); z != "" {
		// Tiles carry their coordinates in the ETag so each tile
		// revalidates independently.
		etag = `"` + m.Hash + "-" + z + "." + r.PathValue("x") + "." + r.PathValue("y") + `"`
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", artifactCacheControl(j))
	h.Set("Accept-Ranges", "bytes")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return nil, ArtifactMeta{}, "", true
	}
	return j, m, etag, false
}

// handleArtifact serves one artifact body under its own content type, so
// a browser renders a PNG projection directly and `curl -O` saves a
// ready-to-open file. HEAD is answered from the metadata row alone;
// GET goes through the blob hot tier and honors byte ranges.
func (s *Scheduler) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, m, _, handled := s.openArtifact(w, r)
	if handled {
		return
	}
	w.Header().Set("Content-Type", m.ContentType)
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Length", strconv.Itoa(m.Size))
		w.WriteHeader(http.StatusOK)
		return
	}
	_, data, err := j.Artifacts().Open(m.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("artifact %q: %w", m.Name, err))
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	http.ServeContent(cw, r, "", time.Time{}, bytes.NewReader(data))
	s.bytesServed.Add(cw.n)
}

// handleArtifactTile serves one tile of a pyramid artifact as a
// standalone PGM: /jobs/{id}/artifacts/{name}/{z}/{x}/{y}, z=0 the
// full-resolution level, x growing rightward and y downward. Out-of-
// range coordinates are 404 (a tile that does not exist), non-numeric
// ones 400, and tile requests against a non-pyramid artifact 400.
func (s *Scheduler) handleArtifactTile(w http.ResponseWriter, r *http.Request) {
	coords := [3]int{}
	for i, key := range []string{"z", "x", "y"} {
		v, err := strconv.Atoi(r.PathValue(key))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad tile coordinate %s=%q", key, r.PathValue(key)))
			return
		}
		coords[i] = v
	}
	j, m, _, handled := s.openArtifact(w, r)
	if handled {
		return
	}
	if m.Kind != string(analysis.KindPyramid) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("artifact %q is kind %q, not a tile pyramid", m.Name, m.Kind))
		return
	}
	_, data, err := j.Artifacts().Open(m.Name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("artifact %q: %w", m.Name, err))
		return
	}
	ts, err := analysis.ParseTileSet(data)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("artifact %q: %w", m.Name, err))
		return
	}
	tile, ok := ts.Tile(coords[0], coords[1], coords[2])
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("pyramid %q has no tile %d/%d/%d (%d levels)",
			m.Name, coords[0], coords[1], coords[2], ts.Levels))
		return
	}
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	cw := &countingWriter{ResponseWriter: w}
	http.ServeContent(cw, r, "", time.Time{}, bytes.NewReader(tile))
	s.bytesServed.Add(cw.n)
}

// handleArtifactEvents streams artifact-ready metadata as
// newline-delimited JSON: one object per stored artifact (starting with
// a replay of those already present), closing once the job is terminal.
func (s *Scheduler) handleArtifactEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		watch := j.Artifacts().Watch()
		defer j.Artifacts().Unwatch(watch)
		streamNDJSON(w, r, watch, nil)
	}
}

func (s *Scheduler) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.Cancel(j.ID) {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is already %s", j.ID, j.State()))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// SweepManifest is the POST /sweeps payload: the same shape as an
// enzobatch sweep file (a defaults block merged under every job row),
// announcing the full row list so the server can pre-warm the result
// cache during idle windows. Nothing is scheduled on the demand path.
type SweepManifest struct {
	// Name labels the sweep in responses and logs.
	Name string `json:"name,omitempty"`
	// Defaults is merged under every row (sim.Merge semantics).
	Defaults Request `json:"defaults,omitempty"`
	// Jobs are the sweep rows.
	Jobs []Request `json:"jobs"`
}

// handleSweep accepts a sweep manifest and returns the per-row triage
// (202: the rows were recorded for speculative pre-warming, or triaged
// with estimates when speculation is off).
func (s *Scheduler) handleSweep(w http.ResponseWriter, r *http.Request) {
	var m SweepManifest
	if !decodeBody(w, r, maxRequestBody, "sweep body", true, &m) {
		return
	}
	rows := make([]Request, len(m.Jobs))
	for i, job := range m.Jobs {
		rows[i] = Merge(m.Defaults, job)
	}
	resp, err := s.PrewarmSweep(m.Name, rows)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleTenants serves the per-tenant historical spend table: observed
// demand and speculative wall seconds, job counts, the configured
// fair-share weight, and the current backlog — the data -tenant-weights
// should be derived from.
func (s *Scheduler) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.TenantSpends())
}

// ProblemInfo is one row of GET /problems.
type ProblemInfo struct {
	Name     string             `json:"name"`
	Summary  string             `json:"summary"`
	Knobs    map[string]string  `json:"knobs,omitempty"`
	Defaults map[string]float64 `json:"default_knobs,omitempty"`
	RootN    int                `json:"default_rootn"`
	MaxLevel int                `json:"default_maxlevel"`
}

func handleProblems(w http.ResponseWriter, r *http.Request) {
	specs := problems.Specs()
	out := make([]ProblemInfo, len(specs))
	for i, sp := range specs {
		knobs := make(map[string]string, len(sp.Knobs))
		for k, knob := range sp.Knobs {
			knobs[k] = knob.String()
		}
		out[i] = ProblemInfo{
			Name:     sp.Name,
			Summary:  sp.Summary,
			Knobs:    knobs,
			Defaults: sp.Defaults.Extra,
			RootN:    sp.Defaults.RootN,
			MaxLevel: sp.Defaults.MaxLevel,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Scheduler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	recovered, resumed, storeErr := s.RecoverState()
	bs := s.blobs.Stats()
	depth, perTenant := s.QueueStats()
	body := map[string]any{
		"ok":                true,
		"uptime_seconds":    s.Uptime().Seconds(),
		"slots":             s.cfg.MaxConcurrent,
		"slot_workers":      s.SlotWorkers(),
		"durable":           s.store.Persistent(),
		"jobs_recovered":    recovered,
		"jobs_resumed":      resumed,
		"blob_bytes":        s.store.Stats().BlobBytes,
		"hot_tier_bytes":    bs.HotBytes,
		"queue_depth":       depth,
		"tenants_queued":    perTenant,
		"costmodel_samples": s.CostModelSamples(),
		"max_job_seconds":   s.cfg.MaxJobSeconds,
	}
	// Speculative-execution gauges: whether the planner runs, its
	// capacity bounds, and the started/hits/preempted/wasted counters.
	sps := s.SpeculationStats()
	body["speculate"] = sps.Enabled
	if sps.Enabled {
		body["speculate_slots"] = sps.Slots
		body["speculate_budget_seconds"] = sps.BudgetSeconds
		body["speculative_pending"] = sps.Pending
		body["speculative_inflight"] = sps.Inflight
		body["speculative_started"] = sps.Started
		body["speculative_hits"] = sps.Hits
		body["speculative_preempted"] = sps.Preempted
		body["speculative_wasted_seconds"] = sps.WastedSeconds
	}
	if storeErr != nil {
		body["store_error"] = storeErr.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Scheduler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# Scheduler counters (Prometheus text format).\n")
	fmt.Fprintf(w, "sim_jobs_submitted_total %d\n", st.Submitted)
	fmt.Fprintf(w, "sim_jobs_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "sim_jobs_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintf(w, "sim_jobs_executed_total %d\n", st.Executed)
	fmt.Fprintf(w, "sim_jobs_succeeded_total %d\n", st.Succeeded)
	fmt.Fprintf(w, "sim_jobs_failed_total %d\n", st.Failed)
	fmt.Fprintf(w, "sim_jobs_cancelled_total %d\n", st.Cancelled)
	fmt.Fprintf(w, "sim_jobs_queued %d\n", st.Queued)
	fmt.Fprintf(w, "sim_jobs_running %d\n", st.Running)
	fmt.Fprintf(w, "sim_jobs_cached %d\n", st.Cached)
	fmt.Fprintf(w, "sim_slots %d\n", s.cfg.MaxConcurrent)
	fmt.Fprintf(w, "sim_slot_workers %d\n", s.SlotWorkers())
	fmt.Fprintf(w, "sim_uptime_seconds %g\n", s.Uptime().Seconds())
	// Store gauges: checkpoint/artifact footprint of the backing store,
	// cache evictions applied to it, and what startup recovery
	// rehydrated; plus the retained jobs' live in-memory artifact bytes.
	ss := s.store.Stats()
	var liveArtifactBytes int64
	for _, j := range s.Jobs() {
		_, b := j.Artifacts().Count()
		liveArtifactBytes += int64(b)
	}
	fmt.Fprintf(w, "sim_store_persistent %d\n", boolGauge(s.store.Persistent()))
	fmt.Fprintf(w, "sim_store_checkpoint_bytes %d\n", ss.CheckpointBytes)
	fmt.Fprintf(w, "sim_store_checkpoints %d\n", ss.CheckpointCount)
	fmt.Fprintf(w, "sim_store_artifact_bytes %d\n", ss.ArtifactBytes)
	fmt.Fprintf(w, "sim_artifact_bytes %d\n", liveArtifactBytes)
	fmt.Fprintf(w, "sim_checkpoints_written_total %d\n", st.Checkpoints)
	fmt.Fprintf(w, "sim_cache_evictions_total %d\n", st.CacheEvictions)
	fmt.Fprintf(w, "sim_jobs_recovered %d\n", st.Recovered)
	fmt.Fprintf(w, "sim_jobs_resumed %d\n", st.Resumed)
	// Read-path counters: the blob hot tier fronting artifact payloads,
	// conditional-request wins, and the content-addressing dedupe — the
	// gauges that say what serving a million readers actually costs.
	bs := s.blobs.Stats()
	fmt.Fprintf(w, "sim_artifact_cache_hits_total %d\n", bs.Hits)
	fmt.Fprintf(w, "sim_artifact_cache_misses_total %d\n", bs.Misses)
	fmt.Fprintf(w, "sim_artifact_cache_evictions_total %d\n", bs.Evictions)
	fmt.Fprintf(w, "sim_artifact_disk_reads_total %d\n", bs.Misses)
	fmt.Fprintf(w, "sim_artifact_bytes_served_total %d\n", s.bytesServed.Load())
	fmt.Fprintf(w, "sim_artifact_not_modified_total %d\n", s.notModified.Load())
	fmt.Fprintf(w, "sim_blob_dedupe_bytes_total %d\n", bs.DedupeBytes)
	fmt.Fprintf(w, "sim_store_dedupe_bytes_total %d\n", ss.DedupeBytes)
	fmt.Fprintf(w, "sim_store_blob_bytes %d\n", ss.BlobBytes)
	fmt.Fprintf(w, "sim_store_blobs %d\n", ss.BlobCount)
	fmt.Fprintf(w, "sim_hot_tier_bytes %d\n", bs.HotBytes)
	fmt.Fprintf(w, "sim_hot_tier_blobs %d\n", bs.HotCount)
	// QoS gauges: dispatch backlog (total and per tenant), admission
	// rejections, cost-model training volume, and the estimate-error
	// histogram — actual/predicted wall-seconds ratio of completed jobs
	// (1 = a perfect estimate).
	depth, perTenant := s.QueueStats()
	fmt.Fprintf(w, "sim_queue_depth %d\n", depth)
	tenants := make([]string, 0, len(perTenant))
	for name := range perTenant {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		fmt.Fprintf(w, "sim_tenant_queued{tenant=%q} %d\n", name, perTenant[name])
	}
	fmt.Fprintf(w, "sim_admission_rejected_total %d\n", st.AdmissionRejected)
	fmt.Fprintf(w, "sim_costmodel_samples %d\n", s.CostModelSamples())
	// Speculative-execution counters: work started in idle windows, the
	// cache hits it earned, preemptions for demand arrivals, and the
	// seconds that produced neither a result nor a checkpoint.
	sps := s.SpeculationStats()
	fmt.Fprintf(w, "sim_speculative_enabled %d\n", boolGauge(sps.Enabled))
	fmt.Fprintf(w, "sim_speculative_started_total %d\n", sps.Started)
	fmt.Fprintf(w, "sim_speculative_completed_total %d\n", sps.Completed)
	fmt.Fprintf(w, "sim_speculative_hits_total %d\n", sps.Hits)
	fmt.Fprintf(w, "sim_speculative_preempted_total %d\n", sps.Preempted)
	fmt.Fprintf(w, "sim_speculative_resumed_total %d\n", sps.Resumed)
	fmt.Fprintf(w, "sim_speculative_failed_total %d\n", sps.Failed)
	fmt.Fprintf(w, "sim_speculative_wasted_seconds_total %g\n", sps.WastedSeconds)
	fmt.Fprintf(w, "sim_speculative_pending %d\n", sps.Pending)
	fmt.Fprintf(w, "sim_speculative_inflight %d\n", sps.Inflight)
	// Per-tenant historical spend, demand and speculative classes
	// labelled separately — the series -tenant-weights derives from.
	for _, ts := range s.TenantSpends() {
		fmt.Fprintf(w, "sim_tenant_spend_seconds{tenant=%q,class=\"demand\"} %g\n", ts.Tenant, ts.DemandSeconds)
		fmt.Fprintf(w, "sim_tenant_spend_seconds{tenant=%q,class=\"speculative\"} %g\n", ts.Tenant, ts.SpeculativeSeconds)
	}
	buckets, count, sum := s.est.snapshot()
	cum := int64(0)
	for i, ub := range estimateBuckets {
		cum += buckets[i]
		fmt.Fprintf(w, "sim_estimate_error_ratio_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	fmt.Fprintf(w, "sim_estimate_error_ratio_bucket{le=\"+Inf\"} %d\n", count)
	fmt.Fprintf(w, "sim_estimate_error_ratio_sum %g\n", sum)
	fmt.Fprintf(w, "sim_estimate_error_ratio_count %d\n", count)
}

// boolGauge renders a bool as a 0/1 Prometheus gauge value.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
