package sim_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/sim"
)

// TestOneAdmissionSite pins the structure: in this package's non-test
// source exactly one statement inserts into the job table and, outside
// the queue's own file, exactly one call pushes onto the fair queue —
// both inside admitLocked.
func TestOneAdmissionSite(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var inserts, pushes []string // the functions holding each site
	// field reports whether e is <anything>.<name>.
	field := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == name
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Index" {
						continue // the store index's jobs map, not the scheduler's table
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if ix, ok := lhs.(*ast.IndexExpr); ok && field(ix.X, "jobs") {
							inserts = append(inserts, fn.Name.Name)
						}
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "push" && field(sel.X, "fq") && name != "qos.go" {
						pushes = append(pushes, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if len(inserts) != 1 || inserts[0] != "admitLocked" {
		t.Errorf("s.jobs[...] is assigned in %v, want exactly [admitLocked]", inserts)
	}
	if len(pushes) != 1 || pushes[0] != "admitLocked" {
		t.Errorf("fq.push is called in %v, want exactly [admitLocked]", pushes)
	}
}

// TestAdmissionPaths drives the one admission step through its callers'
// cases on both stores: startup recovery past a full queue, then — the
// queue still full — every refusal (a fresh submission, a takeover, a
// takeover of an ID already present), each of which must leave the job
// table, the counters and the store's records exactly as they were;
// then the same fresh submission and takeover admitted once there is
// room, and a takeover recorded at more workers than this scheduler
// has.
func TestAdmissionPaths(t *testing.T) {
	forEachStore(t, testAdmissionPaths)
}

func testAdmissionPaths(t *testing.T, reopen func() sim.Store) {
	store := reopen()
	small := func(e0 float64) sim.Request {
		return sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2, Knobs: map[string]float64{"e0": e0}}
	}
	interrupted := func(id string, req sim.Request, age int) sim.JobManifest {
		return sim.JobManifest{ID: id, Request: req, Workers: 1, State: sim.ManifestInterrupted,
			SubmittedAt: time.Now().Add(time.Duration(age) * time.Second)}
	}
	// What a kill leaves behind: a long job (it will pin the one slot)
	// and two short ones — a backlog of two against QueueDepth 1.
	blocker := sim.Request{Problem: "sedov", RootN: 32, MaxLevel: sim.Int(1), Steps: 400}
	for i, m := range []sim.JobManifest{
		interrupted("blocker", blocker, 0), interrupted("rec1", small(1), 1), interrupted("rec2", small(2), 2),
	} {
		if err := store.SaveManifest(m); err != nil {
			t.Fatalf("fabricate record %d: %v", i, err)
		}
	}
	// One retained artifact per job: fewer than the owner that replicated
	// the rows below kept.
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, QueueDepth: 1, ArtifactCount: 1, Store: store})
	defer s.Close()

	// Recovered-resumable, queue full: all three are in, bound or not.
	if recovered, resumed, err := s.RecoverState(); err != nil || recovered != 3 || resumed != 3 {
		t.Fatalf("recovered %d resumed %d err %v, want 3/3", recovered, resumed, err)
	}
	// Running is visible before the start is booked in Stats (the running
	// manifest is persisted in between), and the refusals below must not
	// be blamed for that bump.
	b, _ := s.Get("blocker")
	for deadline := time.Now().Add(30 * time.Second); b.State() != sim.Running || s.Stats().Executed != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker is %s, never started", b.State())
		}
	}
	if depth, _ := s.QueueStats(); depth != 2 {
		t.Fatalf("queue depth %d after recovery, want 2 (past the bound of 1)", depth)
	}

	fresh, takeover := small(3), interrupted("take1", small(4), 3)
	freshID, err := s.CanonicalID(fresh)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate takeover carries a later submit time than the record
	// it collides with, so an overwrite of that record would show.
	dup := interrupted("rec1", small(1), 9)
	stored := func() map[string]sim.JobManifest {
		recs, err := store.Recover()
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]sim.JobManifest{}
		for _, rec := range recs {
			byID[rec.Manifest.ID] = rec.Manifest
		}
		return byID
	}
	rec1 := stored()["rec1"]
	// Two rows each, over the budget of one: for the takeover, as its
	// standby holds them, and under the live rec1's ID.
	saveRows := func(id string) {
		for _, name := range []string{"a.pgm", "b.pgm"} {
			if err := store.SaveArtifact(id, analysis.Artifact{Name: name, Data: []byte(name)}, sim.HashBytes([]byte(name))); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := func(id string) (names []string) {
		metas, err := store.Artifacts(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			names = append(names, m.Name)
		}
		return names
	}
	saveRows("take1")
	saveRows("rec1")
	before := s.Stats()
	for _, tc := range []struct {
		name   string
		admit  func() error
		id     string // must stay absent ("" = skip: the ID was present all along)
		want   error
		wantNo error
	}{
		{"fresh, queue full", func() error { _, err := s.Submit(fresh); return err }, freshID, sim.ErrQueueFull, nil},
		{"takeover, queue full", func() error { return s.Readmit(takeover) }, "take1", sim.ErrQueueFull, nil},
		{"takeover of a present ID", func() error { return s.Readmit(dup) }, "", sim.ErrDuplicate, sim.ErrClosed},
	} {
		err := tc.admit()
		if !errors.Is(err, tc.want) || (tc.wantNo != nil && errors.Is(err, tc.wantNo)) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if _, ok := s.Get(tc.id); ok {
			t.Errorf("%s: refused job %s is in the job table", tc.name, tc.id)
		}
		if after := s.Stats(); after != before {
			t.Errorf("%s: a refusal moved the counters:\n%+v\nwas\n%+v", tc.name, after, before)
		}
		if n := len(s.Jobs()); n != 3 {
			t.Errorf("%s: %d jobs retained, want the 3 recovered", tc.name, n)
		}
	}
	// Nor did a refusal write the store: a restart would otherwise bring
	// the refused takeover back, or the overwritten record's job, and a
	// retry would find rows missing. (Checked before stored(): Recover
	// sweeps take1's rows, which have no manifest.)
	for _, id := range []string{"take1", "rec1"} {
		if got := rows(id); !slices.Equal(got, []string{"a.pgm", "b.pgm"}) {
			t.Errorf("a refused takeover pruned %s's rows to %v", id, got)
		}
	}
	after := stored()
	if m, ok := after["take1"]; ok {
		t.Errorf("the refused takeover left a record a restart recovers: %+v", m)
	}
	if !reflect.DeepEqual(after["rec1"], rec1) {
		t.Errorf("the refused duplicate takeover rewrote the live job's record:\n%+v\nwas\n%+v", after["rec1"], rec1)
	}

	// Room in the queue: the same two admissions go through.
	s.Cancel("rec1")
	s.Cancel("rec2")
	j, disp, err := s.SubmitWithDisposition(fresh)
	if err != nil || disp != sim.Scheduled {
		t.Fatalf("fresh submission with room: disposition %q, err %v", disp, err)
	}
	if got := s.Stats().Submitted; got != 1 {
		t.Errorf("Submitted = %d after one admitted submission, want 1", got)
	}
	s.Cancel(j.ID)
	saveRows("take1") // the standby's rows again, after the sweep
	if err := s.Readmit(takeover); err != nil {
		t.Fatalf("takeover with room: %v", err)
	}
	if got := rows("take1"); !slices.Equal(got, []string{"b.pgm"}) {
		t.Errorf("the admitted takeover left rows %v in the store, want [b.pgm] (its budget of one)", got)
	}
	if st := s.Stats(); st.Recovered != 4 || st.Resumed != 4 {
		t.Errorf("after the takeover: recovered %d resumed %d, want 4/4", st.Recovered, st.Resumed)
	}
	if tj, ok := s.Get("take1"); !ok || !tj.Status().Recovered {
		t.Errorf("taken-over job missing or not marked recovered (present=%v)", ok)
	}
	s.Cancel("take1")
	s.Cancel("blocker")
	<-b.Done()

	// A job recorded on a bigger host resumes at this scheduler's share,
	// not at its recorded 8 workers, and reaches the bits of a direct run
	// at 8.
	big := interrupted("take8", small(6), 5)
	big.Workers, big.Request.Workers = 8, 8
	if err := s.Readmit(big); err != nil {
		t.Fatalf("takeover recorded at 8 workers: %v", err)
	}
	bj, _ := s.Get("take8")
	if w := bj.Status().Workers; w != 1 {
		t.Errorf("taken-over job runs at %d workers, want the slot share 1", w)
	}
	res, err := bj.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.New("sedov", func(o *problems.Opts) { o.RootN, o.MaxLevel, o.Workers, o.Extra["e0"] = 8, 0, 8, 6 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Run(t.Context(), core.RunOpts{MaxSteps: 2}); err != nil {
		t.Fatal(err)
	}
	if want := direct.H.ChecksumHex(); res.Hash != want {
		t.Errorf("taken-over job hash %s, direct run %s", res.Hash, want)
	}

	s.Close()
	if err := s.Readmit(interrupted("take2", small(5), 4)); !errors.Is(err, sim.ErrClosed) {
		t.Errorf("takeover after Close: %v, want ErrClosed", err)
	}
}

// TestConcurrentFreshSubmitsExecuteOnce: the estimate is taken with s.mu
// released, so 32 identical fresh submissions race through that window;
// exactly one may admit, the rest must find it on the second lookup.
func TestConcurrentFreshSubmitsExecuteOnce(t *testing.T) {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 2, TotalWorkers: 2})
	defer s.Close()
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2}

	const n = 32
	jobs := make([]*sim.Job, n)
	disps := make([]sim.Disposition, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			j, d, err := s.SubmitWithDisposition(req)
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			jobs[i], disps[i] = j, d
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	scheduled := 0
	for i, j := range jobs {
		if j != jobs[0] {
			t.Fatalf("submitter %d got a different job", i)
		}
		if disps[i] == sim.Scheduled {
			scheduled++
		}
	}
	if _, err := jobs[0].Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if scheduled != 1 || st.Executed != 1 || st.Submitted != n || st.Coalesced+st.CacheHits != n-1 {
		t.Fatalf("%d scheduled dispositions; executed %d submitted %d coalesced %d hits %d, want 1 / 1 / %d / %d in total",
			scheduled, st.Executed, st.Submitted, st.Coalesced, st.CacheHits, n, n-1)
	}
}

// TestCacheHitSkipsTheCostModel: a hit is answered from the job table
// before anything is priced. The parent commit estimated first — a
// feature map, the model's fits and an escaping Estimate per hit, 20
// allocations in all.
func TestCacheHitSkipsTheCostModel(t *testing.T) {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(1), Steps: 2}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, d, err := s.SubmitWithDisposition(req); err != nil || d != sim.CacheHit {
			t.Fatalf("disposition %q, err %v", d, err)
		}
	})
	if allocs >= 20 {
		t.Errorf("a cache hit allocates %.0f times, not below the 20 it cost with the estimate first", allocs)
	}
}

// manifestHookStore runs hook before every SaveManifest and fails the
// write with the error hook returns.
type manifestHookStore struct {
	sim.Store
	hook func(m sim.JobManifest) error
}

func (s manifestHookStore) SaveManifest(m sim.JobManifest) error {
	if err := s.hook(m); err != nil {
		return err
	}
	return s.Store.SaveManifest(m)
}

// TestTakeoverStoreErrorDoesNotBlockSubmit: a takeover whose manifest
// write fails while a client resubmits the same job — likely right after
// an owner dies, as clients retry against the new one — must not
// deadlock the scheduler. The write runs under the job's lock, the
// resubmission holds the scheduler's lock and waits for the job's, so
// the failure must be noted only after the job's lock is released.
func TestTakeoverStoreErrorDoesNotBlockSubmit(t *testing.T) {
	forEachStore(t, testTakeoverStoreErrorDoesNotBlockSubmit)
}

func testTakeoverStoreErrorDoesNotBlockSubmit(t *testing.T, reopen func() sim.Store) {
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2}
	errSave := errors.New("injected SaveManifest failure")
	var (
		s        *sim.Scheduler
		once     sync.Once
		resubmit = make(chan error, 1)
	)
	store := manifestHookStore{Store: reopen(), hook: func(m sim.JobManifest) error {
		if m.State != sim.ManifestInterrupted {
			return nil
		}
		var err error
		once.Do(func() {
			go func() {
				_, disp, err := s.SubmitWithDisposition(req)
				if err == nil && disp != sim.Coalesced {
					err = fmt.Errorf("resubmission disposition %q, want %q", disp, sim.Coalesced)
				}
				resubmit <- err
			}()
			time.Sleep(200 * time.Millisecond) // let the resubmission reach the job's lock
			err = errSave
		})
		return err
	}}
	s = sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	// A long job pins the one slot, so the taken-over job stays queued
	// and readmit writes its manifest.
	blocker, err := s.Submit(sim.Request{Problem: "sedov", RootN: 32, MaxLevel: sim.Int(1), Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CanonicalID(req)
	if err != nil {
		t.Fatal(err)
	}
	takeover := make(chan error, 1)
	go func() {
		takeover <- s.Readmit(sim.JobManifest{ID: id, Request: req, Workers: 1,
			State: sim.ManifestInterrupted, SubmittedAt: time.Now()})
	}()
	timeout := time.After(30 * time.Second)
	for _, done := range []chan error{takeover, resubmit} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			// No Close: it would wait on the same locks.
			t.Fatal("the takeover and the resubmission deadlocked")
		}
	}
	if _, _, err := s.RecoverState(); !errors.Is(err, errSave) {
		t.Errorf("store error %v, want the injected SaveManifest failure", err)
	}
	s.Cancel(id)
	s.Cancel(blocker.ID)
	s.Close()
}
