package sim

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// smallReq is a fast deterministic job for scheduler tests.
func smallReq() Request {
	return Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2, Workers: 2}
}

// directHash runs the same configuration through core.New directly — the
// reference answer a service job must reproduce bitwise.
func directHash(t *testing.T, req Request, slotWorkers int) string {
	t.Helper()
	r, err := resolve(req, slotWorkers, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := core.New(r.problem, func(o *problems.Opts) { *o = r.opts })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Run(context.Background(), core.RunOpts{MaxSteps: r.steps, MaxTime: r.maxTime}); err != nil {
		t.Fatal(err)
	}
	return sm.H.ChecksumHex()
}

// TestSchedulerDedupeDeterminism is the concurrency acceptance test: N
// identical jobs submitted from racing goroutines must coalesce onto one
// execution and all return the hash of a direct core.New run. Run under
// -race in CI.
func TestSchedulerDedupeDeterminism(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 4, TotalWorkers: 4})
	defer s.Close()

	const n = 8
	req := smallReq()
	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = s.Submit(req)
		}(i)
	}
	wg.Wait()

	want := directHash(t, req, s.SlotWorkers())
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		res, err := jobs[i].Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Hash != want {
			t.Fatalf("job %d hash %s, direct run %s", i, res.Hash, want)
		}
		if jobs[i].ID != jobs[0].ID {
			t.Fatalf("job %d got distinct ID %s vs %s", i, jobs[i].ID, jobs[0].ID)
		}
	}
	st := s.Stats()
	if st.Executed != 1 {
		t.Fatalf("%d executions for %d identical submissions, want exactly 1", st.Executed, n)
	}
	if st.Submitted != n {
		t.Fatalf("submitted %d, want %d", st.Submitted, n)
	}
	if st.Coalesced+st.CacheHits != n-1 {
		t.Fatalf("coalesced %d + cache hits %d, want %d", st.Coalesced, st.CacheHits, n-1)
	}

	// A fresh submission after completion is a pure cache hit.
	before := s.Stats().CacheHits
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := j.Result(); err != nil || res.Hash != want {
		t.Fatalf("cached result: %v %v", res, err)
	}
	if got := s.Stats(); got.CacheHits != before+1 || got.Executed != 1 {
		t.Fatalf("cache hit not counted: %+v", got)
	}
}

// TestDistinctKnobsDistinctJobs: changing any physics knob must produce a
// different job identity (and, for a real knob, a different answer).
func TestDistinctKnobsDistinctJobs(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 2, TotalWorkers: 2})
	defer s.Close()
	a, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	req2 := smallReq()
	req2.Knobs = map[string]float64{"e0": 50}
	b, err := s.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("different knobs coalesced onto one job")
	}
	ra, err := a.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Hash == rb.Hash {
		t.Fatal("e0=10 and e0=50 produced the same state hash")
	}
	if st := s.Stats(); st.Executed != 2 {
		t.Fatalf("executed %d, want 2", st.Executed)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1})
	defer s.Close()
	cases := []Request{
		{Problem: "nosuch", Steps: 1},
		{Problem: "sedov", Steps: 1, Knobs: map[string]float64{"eo": 1}}, // misspelled knob
		{Problem: "sod", Steps: 1, Solver: "weno"},
		{Problem: "sedov", Steps: MaxSteps + 1},
		{Problem: "sedov", Steps: 1, RootN: 2 * MaxRootN}, // would OOM a slot
		{Problem: "sedov", Steps: 1, RootN: 12},           // not a power of two
		{Problem: "sedov", Steps: 1, MaxLevel: Int(MaxMaxLevel + 1)},
		{Problem: "sedov", Steps: 1, Workers: 1 << 30}, // exceeds the service worker budget
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d (%+v): want submit-time error", i, req)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected submissions counted: %+v", st)
	}
}

func TestWatchStreamsEveryStep(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	req := smallReq()
	req.Steps = 3
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var got []Progress
	for p := range j.Watch() {
		got = append(got, p)
	}
	if len(got) != 3 {
		t.Fatalf("watched %d progress updates, want 3: %+v", len(got), got)
	}
	for i, p := range got {
		if p.Step != i || p.Dt <= 0 {
			t.Fatalf("bad progress %d: %+v", i, p)
		}
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	req := smallReq()
	req.Steps = 10000 // far more than we let it take
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Watch() // wait until it is demonstrably evolving
	if !s.Cancel(j.ID) {
		t.Fatal("cancel of a running job reported no live job")
	}
	<-j.Done()
	if st := j.State(); st != Cancelled {
		t.Fatalf("state %v after cancel, want cancelled", st)
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("cancelled job returned a result")
	}
	// The configuration can be resubmitted and runs fresh.
	req.Steps = 2
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	long := smallReq()
	long.Steps = 10000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	<-running.Watch() // hold the only slot
	queued, err := s.Submit(Request{Problem: "khi", RootN: 8, MaxLevel: Int(1), Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel of queued job failed")
	}
	<-queued.Done()
	if st := queued.State(); st != Cancelled {
		t.Fatalf("queued job state %v, want cancelled", st)
	}
	s.Cancel(running.ID)
}

func TestMaxTimeBound(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	req := smallReq()
	req.Steps = 10000
	req.MaxTime = 1e-4 // a couple of root steps at most
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps >= 100 || res.Time < req.MaxTime {
		t.Fatalf("MaxTime bound not honored: %d steps to t=%g", res.Steps, res.Time)
	}
}

// TestMaxLevelZeroIsExplicit: maxlevel 0 ("no refinement") is a real
// configuration, distinct from leaving the field unset.
func TestMaxLevelZeroIsExplicit(t *testing.T) {
	def, err := resolve(Request{Problem: "sedov", Steps: 1}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := resolve(Request{Problem: "sedov", Steps: 1, MaxLevel: Int(0)}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := problems.Get("sedov")
	if def.opts.MaxLevel != spec.Defaults.MaxLevel {
		t.Fatalf("unset maxlevel resolved to %d, want spec default %d", def.opts.MaxLevel, spec.Defaults.MaxLevel)
	}
	if zero.opts.MaxLevel != 0 {
		t.Fatalf("explicit maxlevel 0 resolved to %d", zero.opts.MaxLevel)
	}
	if def.key() == zero.key() {
		t.Fatal("explicit 0 and unset maxlevel share a job identity")
	}
}

func TestMerge(t *testing.T) {
	chem := false
	base := Request{Problem: "sod", RootN: 16, Steps: 4, Knobs: map[string]float64{"a": 1, "b": 2}}
	over := Request{Solver: "fd", Knobs: map[string]float64{"b": 3}, Chemistry: &chem}
	got := Merge(base, over)
	if got.Problem != "sod" || got.RootN != 16 || got.Steps != 4 || got.Solver != "fd" {
		t.Fatalf("merge lost fields: %+v", got)
	}
	if got.Knobs["a"] != 1 || got.Knobs["b"] != 3 {
		t.Fatalf("knob merge wrong: %+v", got.Knobs)
	}
	if base.Knobs["b"] != 2 {
		t.Fatal("Merge mutated base knobs")
	}
	if got.Chemistry == nil || *got.Chemistry {
		t.Fatal("chemistry override lost")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	a, err := resolve(Request{Problem: "sedov", Steps: 2, Knobs: map[string]float64{"e0": 10}}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The spec default e0=10 spelled explicitly is the same physics.
	b, err := resolve(Request{Problem: "sedov", Steps: 2}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.key() != b.key() {
		t.Fatalf("explicit default knob changed the key: %s vs %s", a.key(), b.key())
	}
	// The worker budget is a resource choice, not identity: slot shares 2
	// and 4 and pins 1 and 2 all name one job, as do the spellings 0 and
	// -0 of "no time bound".
	for _, tc := range []struct {
		name        string
		req         Request
		slotWorkers int
	}{
		{"slot share 4", Request{Problem: "sedov", Steps: 2}, 4},
		{"pin 1", Request{Problem: "sedov", Steps: 2, Workers: 1}, 4},
		{"pin 2", Request{Problem: "sedov", Steps: 2, Workers: 2}, 4},
		{"max_time 0", Request{Problem: "sedov", Steps: 2, MaxTime: 0}, 2},
		{"max_time -0", Request{Problem: "sedov", Steps: 2, MaxTime: math.Copysign(0, -1)}, 2},
	} {
		r, err := resolve(tc.req, tc.slotWorkers, 8)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.key() != a.key() {
			t.Errorf("%s: key %s, want %s", tc.name, r.key(), a.key())
		}
	}
	// A bound the run would read as "none" is refused, not given a key.
	for _, bad := range []float64{-5, math.NaN(), math.Inf(1)} {
		if _, err := resolve(Request{Problem: "sedov", Steps: 2, MaxTime: bad}, 2, 8); err == nil {
			t.Errorf("max_time %g resolved, want a submit-time error", bad)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, CacheSize: 2})
	defer s.Close()
	var last *Job
	for _, e0 := range []float64{10, 20, 30, 40} {
		j, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 1,
			Knobs: map[string]float64{"e0": e0}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	// Wait returns once the job is terminal, before its outcome is counted;
	// Succeeded is bumped under s.mu together with the cache bound.
	for deadline := time.Now().Add(30 * time.Second); s.Stats().Succeeded != 4; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("succeeded %d, want 4", s.Stats().Succeeded)
		}
	}
	if got := s.Stats().Cached; got > 2 {
		t.Fatalf("cache retained %d terminal jobs, cap 2", got)
	}
	if _, ok := s.Get(last.ID); !ok {
		t.Fatal("most recent job evicted")
	}
}

// TestEvictionPrefersFailures: cancelled/failed records must be evicted
// before completed results — a failure burst must not flush the cache.
func TestEvictionPrefersFailures(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2, CacheSize: 1})
	defer s.Close()
	done, err := s.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	long := smallReq()
	long.Steps = 10000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	<-running.Watch() // occupy the only slot
	// Two cancelled records, both younger than the Done result.
	for _, e0 := range []float64{20, 30} {
		q, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2,
			Knobs: map[string]float64{"e0": e0}})
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel(q.ID)
		<-q.Done()
	}
	if _, ok := s.Get(done.ID); !ok {
		t.Fatal("cancelled records evicted the completed result")
	}
	if got := s.Stats().Cached; got != 1 {
		t.Fatalf("cached gauge %d, want 1 (Done results only)", got)
	}
	s.Cancel(running.ID)
}

// TestOldFormatCheckpointRebuilds: a checkpoint an older build left in a
// data directory — the gzip+gob stream of snapshot versions 2 and 3, or a
// version-4 stream — cannot be read; the job rebuilds from its request to
// the direct-run hash, and the unreadable checkpoint is reported through
// the store error, naming its format, not swallowed.
func TestOldFormatCheckpointRebuilds(t *testing.T) {
	req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 3, Workers: 1}
	r, err := resolve(req, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var gzipGob bytes.Buffer
	zw := gzip.NewWriter(&gzipGob)
	if err := gob.NewEncoder(zw).Encode(struct {
		Version int
		Problem string
	}{3, "sedov"}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	sm, err := core.New(r.problem, func(o *problems.Opts) { *o = r.opts })
	if err != nil {
		t.Fatal(err)
	}
	format4, err := snapshot.Encode(sm.H, "sedov")
	if err != nil {
		t.Fatal(err)
	}
	format4[len("repro snapshot\x00")] = 4
	for _, old := range []struct {
		name string
		data []byte
		says string
	}{{"format 3", gzipGob.Bytes(), "gzip+gob"}, {"format 4", format4, "format-4"}} {
		t.Run(old.name, func(t *testing.T) {
			store := NewMemStore()
			s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
			defer s.Close()
			if err := store.SaveCheckpoint(r.key(), 1, old.data); err != nil {
				t.Fatal(err)
			}
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if j.ID != r.key() {
				t.Fatalf("job %s, checkpoint stored under %s", j.ID, r.key())
			}
			res, err := j.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want := directHash(t, req, 1); res.Hash != want {
				t.Fatalf("hash %s, direct run %s", res.Hash, want)
			}
			if st := j.Status(); st.ResumedFrom != "" {
				t.Fatalf("resumed from %q, want a rebuild", st.ResumedFrom)
			}
			_, _, storeErr := s.RecoverState()
			if storeErr == nil || !strings.Contains(storeErr.Error(), "checkpoint unreadable") || !strings.Contains(storeErr.Error(), old.says) {
				t.Fatalf("store error %v, want the unreadable %s checkpoint", storeErr, old.name)
			}
		})
	}
}
