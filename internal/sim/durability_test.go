package sim_test

// The durable-execution acceptance suite, over real HTTP: a served job
// interrupted mid-run (process-kill semantics: the scheduler goes away
// without marking the job terminal in the store) must resume from its
// latest checkpoint after restart and produce a final amr.Checksum
// bitwise identical to an uninterrupted run of the same canonical
// request; completed results and artifacts must survive restart as
// cache hits. Every test runs against both stores through one body —
// a "restart" reopens the same data directory, or hands the same
// MemStore value to the next scheduler — so the resume rule is asserted
// once and holds for both. This file lives in package sim_test so it
// can wire the real disk store (internal/sim/diskstore) under the
// scheduler.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// interruptReq is the canonical request of the kill-and-restart test:
// long enough to interrupt mid-run, with a worker pin (a resource hint;
// the interrupted, resumed and reference runs agree bitwise at any
// worker count) and a cadenced projection so artifacts span the
// interruption.
const interruptReq = `{"problem":"sedov","rootn":16,"maxlevel":1,"steps":24,"workers":1,
	"knobs":{"e0":20},
	"outputs":[{"kind":"projection","field":"rho","axis":2,"n":32,"every":4},{"kind":"profile","n":8}]}`

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
}

func postJob(t *testing.T, base, body string) sim.SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		t.Fatalf("POST /jobs: %s\n%s", resp.Status, raw)
	}
	var sub sim.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("POST /jobs: %v\n%s", err, raw)
	}
	return sub
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// artifactBodies fetches every artifact of a job over HTTP, keyed by name.
func artifactBodies(t *testing.T, base, id string) map[string][]byte {
	t.Helper()
	var idx sim.ArtifactIndex
	getJSON(t, base+"/jobs/"+id+"/artifacts", &idx)
	out := make(map[string][]byte, idx.Count)
	for _, m := range idx.Artifacts {
		out[m.Name] = getBytes(t, base+"/jobs/"+id+"/artifacts/"+m.Name)
	}
	return out
}

// forEachStore runs body once per Store implementation. reopen returns
// the store the next process would open: a fresh diskstore.New on the
// same directory, or the same MemStore value again.
func forEachStore(t *testing.T, body func(t *testing.T, reopen func() sim.Store)) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		body(t, func() sim.Store {
			st, err := diskstore.New(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st
		})
	})
	t.Run("mem", func(t *testing.T) {
		st := sim.NewMemStore()
		body(t, func() sim.Store { return st })
	})
}

func durableConfig(store sim.Store) sim.Config {
	return sim.Config{
		MaxConcurrent: 1, TotalWorkers: 1,
		Store: store, CheckpointEvery: 3,
	}
}

func TestKillRestartResumeBitwiseOverHTTP(t *testing.T) {
	forEachStore(t, testKillRestartResumeBitwiseOverHTTP)
}

func testKillRestartResumeBitwiseOverHTTP(t *testing.T, reopen func() sim.Store) {

	// The uninterrupted reference: the same canonical request on a plain
	// in-memory scheduler.
	ref := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer ref.Close()
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()
	refSub := postJob(t, refSrv.URL, interruptReq)

	// Phase 1: serve durably, interrupt mid-run after at least one
	// cadence checkpoint.
	store1 := reopen()
	s1 := sim.NewScheduler(durableConfig(store1))
	srv1 := httptest.NewServer(s1.Handler())
	sub := postJob(t, srv1.URL, interruptReq)
	if sub.ID != refSub.ID {
		t.Fatalf("canonical identity differs across schedulers: %s vs %s", sub.ID, refSub.ID)
	}

	deadline := time.Now().Add(120 * time.Second)
	var st sim.Status
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint observed before completion (state %s, %d checkpoints) — job too fast for the interruption test", st.State, st.Checkpoints)
		}
		getJSON(t, srv1.URL+"/jobs/"+sub.ID, &st)
		if st.Checkpoints >= 1 && st.State == "running" {
			break
		}
		if st.State != "running" && st.State != "queued" {
			t.Fatalf("job reached %s before it could be interrupted", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Kill: tear the scheduler down without drain. The persisted record
	// stays non-terminal, exactly as a SIGKILL would leave it.
	srv1.Close()
	s1.Close()

	// Phase 2: restart on the same store; the job must be recovered,
	// resumed from its latest checkpoint, and finish with the reference
	// hash.
	store2 := reopen()
	s2 := sim.NewScheduler(durableConfig(store2))
	srv2 := httptest.NewServer(s2.Handler())
	if recovered, resumed, err := s2.RecoverState(); err != nil || recovered != 1 || resumed != 1 {
		t.Fatalf("recovery: %d recovered, %d resumed, err %v", recovered, resumed, err)
	}
	j2, ok := s2.Get(sub.ID)
	if !ok {
		t.Fatalf("job %s not recovered", sub.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	getJSON(t, srv2.URL+"/jobs/"+sub.ID, &st)
	if !st.Recovered {
		t.Fatalf("status does not mark the job recovered: %+v", st)
	}
	if !strings.HasPrefix(st.ResumedFrom, "checkpoint step ") {
		t.Fatalf("status reports no checkpoint provenance: resumed_from=%q", st.ResumedFrom)
	}
	if st.Checkpoints < 1 || st.CheckpointStep == nil || *st.CheckpointStep < 0 {
		t.Fatalf("checkpoint count/step missing: %+v", st)
	}

	refRes, err := func() (*sim.Result, error) {
		j, ok := ref.Get(refSub.ID)
		if !ok {
			return nil, fmt.Errorf("reference job lost")
		}
		return j.Wait(ctx)
	}()
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if res2.Hash != refRes.Hash {
		t.Fatalf("resumed run diverged: hash %s, uninterrupted %s", res2.Hash, refRes.Hash)
	}
	if res2.Steps != refRes.Steps || res2.Time != refRes.Time {
		t.Fatalf("resumed run bounds differ: %d@%g vs %d@%g", res2.Steps, res2.Time, refRes.Steps, refRes.Time)
	}

	// Artifacts spanning the interruption must match the uninterrupted
	// run byte for byte, served over HTTP.
	gotArts := artifactBodies(t, srv2.URL, sub.ID)
	wantArts := artifactBodies(t, refSrv.URL, refSub.ID)
	if len(gotArts) != len(wantArts) || len(gotArts) == 0 {
		t.Fatalf("artifact sets differ: %d vs %d", len(gotArts), len(wantArts))
	}
	for name, want := range wantArts {
		if !bytes.Equal(gotArts[name], want) {
			t.Fatalf("artifact %s differs between resumed and uninterrupted runs", name)
		}
	}
	srv2.Close()
	s2.Close()

	// Phase 3: restart again; the completed result and artifacts must be
	// served from the warm store, and an identical submission must be a
	// cache hit — all over real HTTP.
	store3 := reopen()
	s3 := sim.NewScheduler(durableConfig(store3))
	defer s3.Close()
	srv3 := httptest.NewServer(s3.Handler())
	defer srv3.Close()

	var listed []sim.Status
	getJSON(t, srv3.URL+"/jobs?status=done", &listed)
	if len(listed) != 1 || listed[0].ID != sub.ID || !listed[0].Recovered {
		t.Fatalf("warm store listing wrong: %+v", listed)
	}
	sub3 := postJob(t, srv3.URL, interruptReq)
	if sub3.Disposition != string(sim.CacheHit) {
		t.Fatalf("resubmission after restart: disposition %q, want %q", sub3.Disposition, sim.CacheHit)
	}
	var res3 sim.Result
	getJSON(t, srv3.URL+"/jobs/"+sub.ID+"/result", &res3)
	if res3.Hash != refRes.Hash {
		t.Fatalf("warm result hash %s, want %s", res3.Hash, refRes.Hash)
	}
	arts3 := artifactBodies(t, srv3.URL, sub.ID)
	for name, want := range wantArts {
		if !bytes.Equal(arts3[name], want) {
			t.Fatalf("warm artifact %s differs after restart", name)
		}
	}
	// Terminal jobs hold no checkpoints: they were deleted on completion.
	if ck, err := store3.LatestCheckpoint(sub.ID); err != nil || ck != nil {
		t.Fatalf("completed job still has checkpoints: %+v, %v", ck, err)
	}
}

// TestDrainCheckpointsRunningJobs: Drain (the graceful-shutdown path of
// `enzogo serve -data`) must checkpoint a running job at its next
// root-step boundary — even with no cadence configured — record it
// interrupted, and let the next scheduler resume it to the reference
// answer.
func TestDrainCheckpointsRunningJobs(t *testing.T) {
	forEachStore(t, testDrainCheckpointsRunningJobs)
}

func testDrainCheckpointsRunningJobs(t *testing.T, reopen func() sim.Store) {
	store1 := reopen()
	// No CheckpointEvery/CheckpointTime: the only checkpoint is Drain's.
	s1 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store1})
	req := sim.Request{Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: 20, Workers: 1}
	j, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let it take a few steps before draining.
	watch := j.Watch()
	seen := 0
	for p := range watch {
		seen++
		if p.Step >= 2 {
			break
		}
	}
	j.Unwatch(watch)
	if seen == 0 {
		t.Fatal("job finished before drain could interrupt it")
	}
	s1.Drain()

	ck, err := store1.LatestCheckpoint(j.ID)
	if err != nil || ck == nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}
	if ck.Step < 2 {
		t.Fatalf("drain checkpoint at step %d, want the drained boundary (>= 2)", ck.Step)
	}

	store2 := reopen()
	s2 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store2})
	defer s2.Close()
	j2, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("drained job not recovered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); !strings.HasPrefix(st.ResumedFrom, fmt.Sprintf("checkpoint step %d", ck.Step)) {
		t.Fatalf("resume provenance %q, want checkpoint step %d", st.ResumedFrom, ck.Step)
	}

	// Reference: uninterrupted in-memory run of the same request.
	ref := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer ref.Close()
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := rj.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != refRes.Hash {
		t.Fatalf("drained+resumed hash %s, uninterrupted %s", res.Hash, refRes.Hash)
	}
}

// TestRecoverBacklogLargerThanQueue: startup must not block behind a
// recovered backlog bigger than the queue — NewScheduler returns
// promptly (the HTTP listener depends on it) and every recovered job
// still runs to completion.
func TestRecoverBacklogLargerThanQueue(t *testing.T) {
	forEachStore(t, testRecoverBacklogLargerThanQueue)
}

func testRecoverBacklogLargerThanQueue(t *testing.T, reopen func() sim.Store) {
	store1 := reopen()
	// Fabricate interrupted records, as a kill would leave them.
	const n = 4
	for i := 0; i < n; i++ {
		err := store1.SaveManifest(sim.JobManifest{
			ID: fmt.Sprintf("job%04d", i),
			Request: sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2,
				Knobs: map[string]float64{"e0": float64(5 + i)}},
			Workers: 1, State: sim.ManifestInterrupted,
			SubmittedAt: time.Now().Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	startupDone := make(chan *sim.Scheduler, 1)
	go func() {
		startupDone <- sim.NewScheduler(sim.Config{
			MaxConcurrent: 1, TotalWorkers: 1, QueueDepth: 1, Store: store1,
		})
	}()
	var s *sim.Scheduler
	select {
	case s = <-startupDone:
	case <-time.After(30 * time.Second):
		t.Fatal("NewScheduler blocked on a recovered backlog larger than the queue")
	}
	defer s.Close()
	if recovered, resumed, err := s.RecoverState(); err != nil || recovered != n || resumed != n {
		t.Fatalf("recovered %d resumed %d err %v, want %d/%d", recovered, resumed, err, n, n)
	}
	deadline := time.Now().Add(120 * time.Second)
	for i := 0; i < n; i++ {
		j, ok := s.Get(fmt.Sprintf("job%04d", i))
		if !ok {
			t.Fatalf("job%04d not recovered", i)
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatalf("recovered job %d: %v", i, err)
		}
		cancel()
	}
}

// TestWarmStoreSchedulerLevel: completed results rehydrate as cache
// hits without HTTP in the loop (the enzobatch -data path).
func TestWarmStoreSchedulerLevel(t *testing.T) {
	forEachStore(t, testWarmStoreSchedulerLevel)
}

func testWarmStoreSchedulerLevel(t *testing.T, reopen func() sim.Store) {
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(1), Steps: 2, Workers: 1}

	store1 := reopen()
	s1 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store1})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	store2 := reopen()
	s2 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store2})
	defer s2.Close()
	j2, disp, err := s2.SubmitWithDisposition(req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != sim.CacheHit {
		t.Fatalf("disposition %q across restart, want %q", disp, sim.CacheHit)
	}
	res2, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Hash != res1.Hash || res2.Steps != res1.Steps {
		t.Fatalf("warm result differs: %+v vs %+v", res2, res1)
	}
	if st := s2.Stats(); st.Executed != 0 || st.CacheHits != 1 {
		t.Fatalf("warm hit should not execute: %+v", st)
	}
}

// TestDroppedSpeculationLeavesNoRecords: a speculation preempted at a
// root-step boundary leaves an interrupted manifest and a checkpoint in
// the store so it can resume; once the planner drops the candidate (here
// its tenant's speculative budget is spent by the first attempt) those
// records must go with it, on either store.
func TestDroppedSpeculationLeavesNoRecords(t *testing.T) {
	forEachStore(t, func(t *testing.T, reopen func() sim.Store) {
		store := reopen()
		s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store,
			Speculate: true, SpeculateBudgetSeconds: 1e-4})
		defer s.Close()
		target := sim.Request{Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: 20, Workers: 1,
			Knobs: map[string]float64{"e0": 13}}
		id, err := s.CanonicalID(target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.PrewarmSweep("one", []sim.Request{target}); err != nil {
			t.Fatal(err)
		}
		waitFor := func(what string, cond func(sim.SpeculationStats) bool) sim.SpeculationStats {
			t.Helper()
			deadline := time.Now().Add(60 * time.Second)
			for {
				st := s.SpeculationStats()
				if cond(st) {
					return st
				}
				if time.Now().After(deadline) {
					t.Fatalf("speculation never reached %s: %+v", what, st)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		waitFor("a started run", func(st sim.SpeculationStats) bool { return st.Started >= 1 })
		time.Sleep(150 * time.Millisecond) // a few root steps, so the preemption has a boundary to checkpoint at

		dj, err := s.Submit(sim.Request{Problem: "khi", RootN: 8, MaxLevel: sim.Int(0), Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dj.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := waitFor("an empty backlog", func(st sim.SpeculationStats) bool {
			return st.Started >= 1 && st.Pending == 0 && st.Inflight == 0
		})
		if st.Preempted == 0 || st.Completed != 0 || st.WastedSeconds != 0 {
			t.Skipf("preempt-with-checkpoint then drop not exercised: %+v", st)
		}
		if got := store.Stats(); got.CheckpointCount != 0 || got.CheckpointBytes != 0 {
			t.Fatalf("dropped candidate's checkpoint still in the store: %+v", got)
		}
		recs, err := store.Recover()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Manifest.ID == id {
				t.Fatalf("dropped candidate still recoverable: %+v", rec.Manifest)
			}
		}
	})
}

// faultStore fails the named Store methods with the mapped error and
// passes everything else through.
type faultStore struct {
	sim.Store
	fail map[string]error
}

func (f faultStore) DeleteCheckpoints(id string) error {
	if err := f.fail["DeleteCheckpoints"]; err != nil {
		return err
	}
	return f.Store.DeleteCheckpoints(id)
}

func (f faultStore) Close() error {
	if err := f.fail["Close"]; err != nil {
		return err
	}
	return f.Store.Close()
}

// TestStoreErrorsSurface: a store failure after submit time costs
// durability, not the answer — but it must not vanish. The first error
// any store call returns (here: dropping a finished job's checkpoints,
// then closing the store) is what RecoverState reports.
func TestStoreErrorsSurface(t *testing.T) {
	errDelete := fmt.Errorf("injected DeleteCheckpoints failure")
	errClose := fmt.Errorf("injected Close failure")
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2, Workers: 1}
	for _, tc := range []struct {
		name string
		fail map[string]error
		want error
	}{
		{"terminal checkpoint delete", map[string]error{"DeleteCheckpoints": errDelete, "Close": errClose}, errDelete},
		{"close", map[string]error{"Close": errClose}, errClose},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1,
				Store: faultStore{Store: sim.NewMemStore(), fail: tc.fail}})
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatalf("a failing store must not fail the job: %v", err)
			}
			s.Close()
			if _, _, got := s.RecoverState(); got != tc.want {
				t.Fatalf("RecoverState error = %v, want %v", got, tc.want)
			}
		})
	}
}
