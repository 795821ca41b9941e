package sim

// The speculative-execution suite. The planner-level test plays the
// free slot itself for exact determinism; the scheduler-level tests let
// the real slots run speculations and synchronize on the counters,
// never on dispatch timing. The one ordering test reuses the qos_test
// harness to prove speculation never perturbs demand dispatch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer serves a scheduler's handler for the duration of the
// test.
func newTestServer(t *testing.T, s *Scheduler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// postSweepRaw POSTs a sweep manifest and returns the HTTP response
// status code and body.
func postSweepRaw(t *testing.T, url string, manifest any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(manifest)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postSweep POSTs a sweep manifest expecting 202 Accepted and decodes
// the triage response.
func postSweep(t *testing.T, url string, manifest any) SweepResponse {
	t.Helper()
	code, body := postSweepRaw(t, url, manifest)
	if code != http.StatusAccepted {
		t.Fatalf("POST /sweeps: status %d: %s", code, body)
	}
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// postSweepStatus POSTs a sweep manifest and returns only the status
// code (for the rejection cases).
func postSweepStatus(t *testing.T, url string, manifest any) int {
	t.Helper()
	code, _ := postSweepRaw(t, url, manifest)
	return code
}

// getTenants fetches the per-tenant spend ledger.
func getTenants(t *testing.T, url string) []TenantSpend {
	t.Helper()
	resp, err := http.Get(url + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tenants: %s", resp.Status)
	}
	var out []TenantSpend
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getHealthz fetches the health document as a generic map.
func getHealthz(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getMetrics fetches the Prometheus text exposition.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// waitSpec polls the speculation counters until cond holds, failing the
// test after a generous deadline (speculative runs are real
// simulations; only their completion order is asserted, never their
// timing).
func waitSpec(t *testing.T, s *Scheduler, what string, cond func(SpeculationStats) bool) SpeculationStats {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var st SpeculationStats
	for time.Now().Before(deadline) {
		st = s.SpeculationStats()
		if cond(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("speculation never reached %s: %+v", what, st)
	return st
}

// TestSpeculativeSweepWarmsCache is the in-process acceptance test: a
// sweep announced up front is fully pre-warmed by the idle slot, so
// every later submission of its rows is a plain cache hit flagged as
// speculatively computed, the fair-share vclock never moves, and the
// tenant's seconds land in the speculative ledger.
func TestSpeculativeSweepWarmsCache(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, SpeculateSlots: 1})
	defer s.Close()

	rows := make([]Request, 3)
	for i := range rows {
		rows[i] = Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2,
			Knobs: map[string]float64{"e0": float64(5 + i)}, Tenant: "sci"}
	}
	resp, err := s.PrewarmSweep("warmup", rows)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || !resp.Speculate {
		t.Fatalf("announce: %+v", resp)
	}
	waitSpec(t, s, "3 completions", func(st SpeculationStats) bool { return st.Completed == 3 })

	for i, req := range rows {
		j, disp, err := s.SubmitWithDisposition(req)
		if err != nil {
			t.Fatal(err)
		}
		if disp != CacheHit {
			t.Fatalf("row %d: disposition %q, want cache", i, disp)
		}
		if st := j.Status(); !st.Speculative || st.State != "done" {
			t.Fatalf("row %d status: speculative=%t state=%s", i, st.Speculative, st.State)
		}
	}
	if st := s.SpeculationStats(); st.Hits != 3 {
		t.Fatalf("speculative hits = %d, want 3", st.Hits)
	}

	// Speculative seconds never advance the fair-share virtual clock —
	// the queue has dispatched nothing, so a demand tenant arriving now
	// starts from zero attained service.
	s.fq.mu.Lock()
	vclock := s.fq.vclock
	s.fq.mu.Unlock()
	if vclock != 0 {
		t.Fatalf("speculation advanced the fair-share vclock to %g", vclock)
	}

	// The spend ledger has the seconds in the speculative class only.
	var sci *TenantSpend
	for _, ts := range s.TenantSpends() {
		if ts.Tenant == "sci" {
			ts := ts
			sci = &ts
		}
	}
	if sci == nil || sci.SpeculativeJobs != 3 || sci.DemandJobs != 0 {
		t.Fatalf("tenant spend: %+v", sci)
	}
}

// TestSpeculationDoesNotPerturbDemandDispatch extends the qos_test
// harness: the exact fair-share scenario of
// TestSchedulerFairDispatchOrder, but with speculation enabled and a
// pending sweep backlog the planner would love to run. Demand dispatch
// order must be byte-for-byte what it is with speculation off:
// alternating tenants.
func TestSpeculationDoesNotPerturbDemandDispatch(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2, QueueDepth: 16,
		SpeculateSlots: 1})
	defer s.Close()

	// A sweep backlog of work the planner wants to run the moment it
	// sees idle capacity.
	bait := make([]Request, 4)
	for i := range bait {
		bait[i] = Request{Problem: "khi", RootN: 8, MaxLevel: Int(0), Steps: 3,
			Knobs: map[string]float64{"amp": 0.01 * float64(i+1)}, Tenant: "spec"}
	}
	if _, err := s.PrewarmSweep("bait", bait); err != nil {
		t.Fatal(err)
	}

	// The blocker pins the only slot while the backlog builds.
	blocker, err := s.Submit(Request{Problem: "sedov", RootN: 32, MaxLevel: Int(1), Steps: 12, Tenant: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	// Its first progress event proves the blocker has been dispatched.
	// The dispatch bills tenant "warm" and advances the queue's virtual
	// clock, and a tenant enters at the clock's value when its first job
	// is pushed. Push claims the blocker on the spot only while the slot
	// is parked in pop or running a speculation; when the slot is between
	// a finished bait run and its next pop, the dispatch waits for that
	// pop and races the pushes below. Landing between alice's first and
	// bob's first, it admits alice at 0 and bob at 1, and alice rightly
	// gets two turns before bob's first.
	<-blocker.Watch()
	submit := func(tenant string, steps int) *Job {
		t.Helper()
		j, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: steps, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	queued := []*Job{
		submit("alice", 1), submit("alice", 2), submit("alice", 3),
		submit("bob", 4), submit("bob", 5), submit("bob", 6),
	}
	depth, per := s.QueueStats()
	if per["alice"] != 3 || per["bob"] != 3 {
		t.Skipf("backlog did not build: depth=%d per=%v", depth, per)
	}

	ctx := t.Context()
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	order := make([]string, 0, len(queued))
	starts := make(map[string]time.Time, len(queued))
	for _, j := range queued {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		starts[j.ID] = j.started
		j.mu.Unlock()
		order = append(order, j.ID)
	}
	sortByStart(order, starts)
	wantTenants := []string{"alice", "bob", "alice", "bob", "alice", "bob"}
	byID := map[string]*Job{}
	for _, j := range queued {
		byID[j.ID] = j
	}
	for i, id := range order {
		if got := byID[id].tenant; got != wantTenants[i] {
			t.Fatalf("dispatch %d went to tenant %s, want %s (order %v)", i, got, wantTenants[i], order)
		}
	}
}

// TestSpeculativePreemptResumeChecksum: a speculative run preempted at
// a root-step boundary and resumed from its checkpoint in the next idle
// window produces the bitwise-identical result hash of an uninterrupted
// demand run of the same configuration.
func TestSpeculativePreemptResumeChecksum(t *testing.T) {
	target := Request{Problem: "sedov", RootN: 16, MaxLevel: Int(1), Steps: 20,
		Knobs: map[string]float64{"e0": 12}}

	ref := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	rj, err := ref.Submit(target)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := rj.Wait(t.Context())
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, SpeculateSlots: 1})
	defer s.Close()
	if _, err := s.PrewarmSweep("one", []Request{target}); err != nil {
		t.Fatal(err)
	}
	waitSpec(t, s, "speculation started", func(st SpeculationStats) bool { return st.Started >= 1 })
	// Let the run get through a few root steps so the preemption has a
	// boundary to checkpoint at.
	time.Sleep(150 * time.Millisecond)

	// A real submission arrives: the speculation is preempted, the
	// demand job runs, and the candidate re-enters the backlog.
	dj, err := s.Submit(Request{Problem: "khi", RootN: 8, MaxLevel: Int(0), Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dj.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := waitSpec(t, s, "completion", func(st SpeculationStats) bool { return st.Completed >= 1 })
	if st.Preempted == 0 || st.Resumed == 0 {
		// The speculation outran the preemption (or was cancelled before
		// its first step): nothing resumed, so the bitwise assertion
		// below would not be about the resume path.
		t.Skipf("preempt/resume not exercised: %+v", st)
	}

	j, disp, err := s.SubmitWithDisposition(target)
	if err != nil {
		t.Fatal(err)
	}
	if disp != CacheHit {
		t.Fatalf("post-warm submission: disposition %q, want cache", disp)
	}
	res, err := j.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != refRes.Hash {
		t.Fatalf("resumed speculative hash %s != demand hash %s", res.Hash, refRes.Hash)
	}
	status := j.Status()
	if !status.Speculative || status.ResumedFrom == "" {
		t.Fatalf("status after resume: speculative=%t resumed_from=%q", status.Speculative, status.ResumedFrom)
	}
}

// TestSpeculationUsesIdleCapacityOnly: with more speculative workers
// than scheduler slots, at most MaxConcurrent speculations are ever in
// flight — speculation consumes idle capacity, it never adds any.
func TestSpeculationUsesIdleCapacityOnly(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, SpeculateSlots: 2})
	defer s.Close()

	rows := make([]Request, 3)
	for i := range rows {
		rows[i] = Request{Problem: "sedov", RootN: 16, MaxLevel: Int(0), Steps: 3,
			Knobs: map[string]float64{"e0": float64(20 + i)}}
	}
	if _, err := s.PrewarmSweep("caps", rows); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := s.SpeculationStats()
		if st.Inflight > 1 {
			t.Fatalf("%d speculations in flight with MaxConcurrent=1", st.Inflight)
		}
		if st.Completed == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSpeculativeBudgetCap: once a tenant's speculative wall seconds
// exceed -speculate-budget-seconds, its remaining candidates are
// dropped, not run.
func TestSpeculativeBudgetCap(t *testing.T) {
	// Any real run blows a 0.5ms budget, so exactly one speculation
	// starts and the second candidate is discarded at claim time.
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1,
		SpeculateSlots: 1, SpeculateBudgetSeconds: 0.0005})
	defer s.Close()

	rows := []Request{
		{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2, Knobs: map[string]float64{"e0": 30}, Tenant: "sci"},
		{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2, Knobs: map[string]float64{"e0": 31}, Tenant: "sci"},
	}
	if _, err := s.PrewarmSweep("budget", rows); err != nil {
		t.Fatal(err)
	}
	st := waitSpec(t, s, "backlog drained", func(st SpeculationStats) bool {
		return st.Pending == 0 && st.Inflight == 0
	})
	if st.Started != 1 || st.Completed != 1 {
		t.Fatalf("budget cap: started=%d completed=%d, want 1/1", st.Started, st.Completed)
	}
}

// TestSpeculatorPlannerDedupe drives the planner and the queue's
// speculative class synchronously: the scheduler's only slot is pinned
// by a demand blocker, so the test itself plays the free slot.
// Candidates already cached, in flight, duplicated or previously failed
// are refused; lineage candidates without cost-model history stay
// parked behind the confidence gate while sweep rows run without it.
func TestSpeculatorPlannerDedupe(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2, SpeculateSlots: 2})
	defer s.Close()

	mustResolve := func(req Request) resolved {
		t.Helper()
		r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// claim is what a free slot's pop does once the demand backlog is
	// empty, minus the blocking.
	claim := func() *Job {
		s.fq.mu.Lock()
		defer s.fq.mu.Unlock()
		return s.fq.popSpeculativeLocked()
	}

	// A completed demand job: its configuration has nothing to warm.
	cached := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2}
	j, err := s.Submit(cached)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	if s.offerSpeculative(cached, mustResolve(cached), classSweep) {
		t.Fatal("planner accepted an already-cached configuration")
	}

	// Pin the slot: from here on nothing but the test pops speculations.
	blocker, err := s.Submit(Request{Problem: "sedov", RootN: 32, MaxLevel: Int(1), Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(blocker.ID)
	for blocker.State() != Running {
		time.Sleep(time.Millisecond)
	}

	// A fresh sweep row is accepted exactly once.
	fresh := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 3}
	fr := mustResolve(fresh)
	if !s.offerSpeculative(fresh, fr, classSweep) {
		t.Fatal("planner refused a fresh sweep row")
	}
	if s.offerSpeculative(fresh, fr, classSweep) {
		t.Fatal("planner accepted a duplicate pending candidate")
	}

	// A lineage candidate with no model history stays parked behind the
	// confidence gate: a claim must pick the sweep row, never the guess.
	guess := Request{Problem: "khi", RootN: 8, MaxLevel: Int(0), Steps: 2}
	if !s.offerSpeculative(guess, mustResolve(guess), classLineage) {
		t.Fatal("planner refused a lineage candidate")
	}
	claimed := claim()
	if claimed == nil || claimed.ID != fr.key() {
		t.Fatalf("claim picked %v, want the sweep row", claimed)
	}
	defer s.fq.retire(claimed.ID)
	// The claimed configuration is now in flight: re-adding it is a dup.
	if s.offerSpeculative(fresh, fr, classSweep) {
		t.Fatal("planner accepted a candidate already in flight")
	}
	// The gated lineage candidate is still pending, and with no history
	// it is not claimable.
	if again := claim(); again != nil {
		t.Fatalf("claimed the unconfident lineage guess %s", again.ID)
	}
	if st := s.SpeculationStats(); st.Pending != 1 || st.Inflight != 1 {
		t.Fatalf("backlog %+v, want the gated lineage candidate pending and the sweep row in flight", st)
	}

	// A configuration that failed speculatively is never retried.
	deadReq := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 4}
	dr := mustResolve(deadReq)
	s.spec.markDead(dr.key())
	if s.offerSpeculative(deadReq, dr, classSweep) {
		t.Fatal("planner accepted a speculatively-failed configuration")
	}
}

// TestKnobNeighbour: the lineage planner extrapolates the next row of a
// single-axis sweep and nothing else.
func TestKnobNeighbour(t *testing.T) {
	base := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2}
	withKnob := func(e0 float64) Request {
		r := base
		r.Knobs = map[string]float64{"e0": e0}
		return r
	}
	res := func(req Request) resolved {
		t.Helper()
		r, err := resolve(req, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	prev := lineageEntry{req: withKnob(10), res: res(withKnob(10))}
	cur := withKnob(12)
	next := knobNeighbour(prev, cur, res(cur))
	if next == nil || next.Knobs["e0"] != 14 {
		t.Fatalf("neighbour of e0 10→12: %+v, want e0=14", next)
	}
	if next.DeadlineSeconds != 0 {
		t.Fatal("extrapolated row inherited a deadline")
	}

	// Two knobs moving, a different problem, or a different grid is not
	// a single-axis sweep.
	cool := func(delta, tinit float64) Request {
		return Request{Problem: "coolsphere", RootN: 8, MaxLevel: Int(0), Steps: 2,
			Knobs: map[string]float64{"delta": delta, "tinit": tinit}}
	}
	prevCool := lineageEntry{req: cool(20, 1000), res: res(cool(20, 1000))}
	two := cool(25, 1200)
	if knobNeighbour(prevCool, two, res(two)) != nil {
		t.Fatal("extrapolated across a two-axis change")
	}
	otherGrid := withKnob(12)
	otherGrid.RootN = 16
	if knobNeighbour(prev, otherGrid, res(otherGrid)) != nil {
		t.Fatal("extrapolated across a grid change")
	}
	same := withKnob(10)
	if knobNeighbour(prev, same, res(same)) != nil {
		t.Fatal("extrapolated from an identical configuration")
	}
}

// TestSweepAndTenantsEndpoints covers the HTTP surface: POST /sweeps
// triages rows (cached / live / accepted / invalid), GET /tenants
// reports the spend ledger, and /healthz and /metrics carry the
// speculation series.
func TestSweepAndTenantsEndpoints(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2, SpeculateSlots: 1})
	defer s.Close()
	srv := newTestServer(t, s)

	// One cached row and one live (long-running) row for the triage.
	cachedReq := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2, Tenant: "sci"}
	cached := postJob(t, srv.URL, cachedReq)
	waitResult(t, srv.URL, cached.ID)
	// Long enough that the sweep triage — whose handler contends with
	// the running job for CPU on a small host — reliably observes the
	// job mid-flight, short enough to finish under -race on one core.
	liveReq := Request{Problem: "sedov", RootN: 16, MaxLevel: Int(1), Steps: 20, Tenant: "sci"}
	live := postJob(t, srv.URL, liveReq)

	manifest := map[string]any{
		"name":     "triage",
		"defaults": map[string]any{"problem": "sedov", "rootn": 8, "maxlevel": 0, "steps": 2},
		"jobs": []map[string]any{
			{}, // identical to cachedReq minus tenant: cached
			{"rootn": 16, "maxlevel": 1, "steps": 20}, // the live blocker
			{"knobs": map[string]float64{"e0": 42}},   // fresh: accepted
			{"problem": "no-such-problem"},            // invalid
		},
	}
	resp := postSweep(t, srv.URL, manifest)
	want := []string{"cached", "live", "accepted", "invalid"}
	if len(resp.Results) != len(want) {
		t.Fatalf("sweep results: %+v", resp.Results)
	}
	for i, status := range want {
		if resp.Results[i].Status != status {
			t.Fatalf("row %d triaged %q, want %q (%+v)", i, resp.Results[i].Status, status, resp.Results[i])
		}
	}
	if resp.Accepted != 1 || !resp.Speculate {
		t.Fatalf("sweep response: %+v", resp)
	}
	// Every resolvable row carries an estimate, cached and live included.
	for i := 0; i < 3; i++ {
		if resp.Results[i].Estimate == nil {
			t.Fatalf("row %d has no estimate", i)
		}
	}

	waitResult(t, srv.URL, live.ID)
	waitSpec(t, s, "prewarm completion", func(st SpeculationStats) bool { return st.Completed >= 1 })

	// GET /tenants: the demand runs and the speculative run are in
	// separate classes. (The sweep rows carry no tenant, so the
	// speculative seconds land under "default".)
	spends := getTenants(t, srv.URL)
	byTenant := map[string]TenantSpend{}
	for _, ts := range spends {
		byTenant[ts.Tenant] = ts
	}
	if sci := byTenant["sci"]; sci.DemandJobs != 2 || sci.SpeculativeJobs != 0 {
		t.Fatalf("sci spend: %+v", sci)
	}
	if def := byTenant["default"]; def.SpeculativeJobs < 1 || def.DemandJobs != 0 {
		t.Fatalf("default spend: %+v", def)
	}

	// /healthz and /metrics carry the speculation state.
	health := getHealthz(t, srv.URL)
	for _, key := range []string{"speculate", "speculate_slots", "speculative_pending",
		"speculative_inflight", "speculative_started", "speculative_hits",
		"speculative_preempted", "speculative_wasted_seconds"} {
		if _, ok := health[key]; !ok {
			t.Fatalf("/healthz lacks %q: %v", key, health)
		}
	}
	metrics := getMetrics(t, srv.URL)
	for _, line := range []string{
		"sim_speculative_enabled 1",
		"sim_speculative_started_total ",
		"sim_speculative_hits_total ",
		"sim_speculative_preempted_total ",
		"sim_speculative_wasted_seconds_total ",
		`sim_tenant_spend_seconds{tenant="sci",class="demand"}`,
		`sim_tenant_spend_seconds{tenant="default",class="speculative"}`,
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("/metrics lacks %q:\n%s", line, metrics)
		}
	}

	// Bounds: an empty manifest and an oversized one are 400s.
	for name, bad := range map[string]any{
		"empty":     map[string]any{"jobs": []map[string]any{}},
		"oversized": map[string]any{"jobs": make([]map[string]any, MaxSweepRows+1)},
	} {
		if code := postSweepStatus(t, srv.URL, bad); code != 400 {
			t.Fatalf("%s sweep: status %d, want 400", name, code)
		}
	}
}

// TestNeverRetrySetIsBounded: the never-retry set holds at most
// specPendingCap configurations; past it the oldest failure is
// forgotten (it costs one more failed run), the newest are kept.
func TestNeverRetrySetIsBounded(t *testing.T) {
	var sp speculator
	sp.dead = map[string]bool{}
	for i := range specPendingCap + 1 {
		sp.markDead(fmt.Sprintf("cfg%d", i))
	}
	sp.markDead("cfg1") // a repeat neither grows the set nor refreshes the entry
	if len(sp.dead) != specPendingCap || len(sp.deadOrder) != specPendingCap {
		t.Fatalf("never-retry set holds %d (%d ordered), cap %d", len(sp.dead), len(sp.deadOrder), specPendingCap)
	}
	if sp.dead["cfg0"] || !sp.dead["cfg1"] || !sp.dead[fmt.Sprintf("cfg%d", specPendingCap)] {
		t.Fatal("the cap evicted something other than the oldest failure")
	}
}
