package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/problems"
	"repro/internal/sim/costmodel"
	"repro/internal/snapshot"
)

// Config sizes a Scheduler.
type Config struct {
	// MaxConcurrent is the number of jobs evolving at once (default 2).
	MaxConcurrent int
	// TotalWorkers is the par worker budget partitioned evenly across
	// the concurrent slots (0 = runtime.NumCPU). A request that pins
	// its own Workers bypasses the partition.
	TotalWorkers int
	// CacheSize bounds the completed (terminal) jobs retained for
	// dedupe/cache hits, evicted oldest-first (default 64).
	CacheSize int
	// QueueDepth bounds the jobs waiting for a slot; Submit fails once
	// the backlog is full (default 256).
	QueueDepth int
	// ArtifactBytes bounds each job's derived-output artifact store;
	// oldest artifacts are evicted first once a job exceeds it (default
	// DefaultArtifactBytes).
	ArtifactBytes int
	// ArtifactCount bounds the artifacts a job retains (default
	// DefaultArtifactCount).
	ArtifactCount int
	// HotBytes bounds the shared in-memory blob hot tier fronting the
	// store's artifact payloads (default DefaultHotTierBytes).
	HotBytes int64
	// Store is the persistence layer (nil = NewMemStore, which lasts as
	// long as the value; diskstore.New survives a process restart). At
	// startup the scheduler recovers its completed results/artifacts as
	// cache hits and resumes interrupted jobs from their latest
	// checkpoint; Drain checkpoints running jobs before exit.
	Store Store
	// CheckpointEvery writes a restart checkpoint after every N-th root
	// step of a running job (0 = no step cadence).
	CheckpointEvery int
	// CheckpointTime writes a restart checkpoint whenever a job's code
	// time crosses a multiple of this interval (0 = no time cadence).
	CheckpointTime float64
	// MaxJobSeconds is the admission bound: a submission whose cost
	// estimate exceeds it is rejected with an AdmissionError carrying
	// the estimate (0 = no bound). Only estimates backed by at least one
	// observed sample reject — an untrained model admits everything.
	MaxJobSeconds float64
	// TenantWeights assigns fair-share weights to named tenants; an
	// unlisted tenant (including the implicit "default") weighs 1. A
	// tenant with weight w receives w shares of the dispatch bandwidth
	// under contention.
	TenantWeights map[string]float64
	// Clock is the scheduler's time source (nil = time.Now) — the
	// injected seam the deterministic queue-fairness and deadline tests
	// drive with a fake clock.
	Clock func() time.Time
	// Speculate enables speculative execution: when the QoS queue is
	// empty and slots sit idle, the scheduler pre-warms the result cache
	// with candidates from announced sweeps (POST /sweeps) and submission
	// lineage, preempting them at the next root-step boundary the moment
	// demand work arrives. See speculate.go.
	Speculate bool
	// SpeculateSlots bounds concurrent speculative executions (default 1
	// when Speculate is set). Speculation only uses idle capacity: a
	// speculative run also requires a free scheduler slot.
	SpeculateSlots int
	// SpeculateBudgetSeconds caps each tenant's accumulated speculative
	// wall seconds for the process lifetime (0 = no cap).
	SpeculateBudgetSeconds float64
	// SpeculateMaxSeconds skips any candidate whose cost estimate
	// exceeds it (0 = no bound). Only estimates backed by at least one
	// sample gate — an untrained model skips nothing.
	SpeculateMaxSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.TotalWorkers <= 0 {
		c.TotalWorkers = runtime.NumCPU()
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ArtifactBytes <= 0 {
		c.ArtifactBytes = DefaultArtifactBytes
	}
	if c.ArtifactCount <= 0 {
		c.ArtifactCount = DefaultArtifactCount
	}
	if c.HotBytes <= 0 {
		c.HotBytes = DefaultHotTierBytes
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Speculate && c.SpeculateSlots <= 0 {
		c.SpeculateSlots = 1
	}
	return c
}

// slotWorkers is the per-job par budget of a scheduler slot: the total
// budget split evenly over the concurrent slots, never below one.
func (c Config) slotWorkers() int {
	w := c.TotalWorkers / c.MaxConcurrent
	if w < 1 {
		w = 1
	}
	return w
}

// State is a job's lifecycle phase.
type State int

// The job lifecycle: Queued → Running → one of the terminal states
// (Done, Failed, Cancelled).
const (
	Queued State = iota
	Running
	Done
	Failed
	Cancelled
)

// String renders the state for logs and the JSON API.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// terminal reports whether the state is final.
func (s State) terminal() bool { return s >= Done }

// Progress is one per-root-step update streamed to job watchers.
type Progress struct {
	Step     int     `json:"step"`
	Time     float64 `json:"time"`
	Dt       float64 `json:"dt"`
	MaxLevel int     `json:"maxlevel"`
	NumGrids int     `json:"grids"`
}

// Result is the outcome of a completed job.
type Result struct {
	// Hash is amr.(*Hierarchy).ChecksumHex of the evolved hierarchy —
	// the bitwise identity of the answer, directly comparable to a
	// local core.New run with the same resolved configuration.
	Hash     string  `json:"hash"`
	Steps    int     `json:"steps"`
	Time     float64 `json:"time"`
	MaxLevel int     `json:"maxlevel"`
	NumGrids int     `json:"grids"`
	SDR      float64 `json:"sdr"`
	// Artifacts counts the derived-output products the job retains
	// (fetch them under /jobs/{id}/artifacts).
	Artifacts int             `json:"artifacts"`
	Metrics   perf.JobMetrics `json:"metrics"`
}

// Job is one scheduled simulation. The zero job is not usable; obtain
// jobs from Scheduler.Submit or Scheduler.Get.
type Job struct {
	// ID is the canonical configuration hash — identical requests share
	// a Job (and its single execution).
	ID  string
	Req Request
	// Workers is the effective par budget the job runs with.
	Workers int
	// StepBudget and MaxTime are the resolved run bounds.
	StepBudget int
	MaxTime    float64

	sched     *Scheduler
	res       resolved
	doneCh    chan struct{}
	artifacts *ArtifactStore

	// QoS metadata, immutable once the job is visible: the fair-share
	// tenant the submission bills to, the absolute deadline derived from
	// the request hint (zero when none), and the cost model's pre-run
	// estimate (nil only for jobs recovered in a terminal state).
	tenant   string
	deadline time.Time
	est      *costmodel.Estimate

	mu          sync.Mutex
	state       State
	prog        Progress
	stepsDone   int
	history     []Progress // recent stream (≤ maxHistory), replayed to late watchers
	result      *Result
	err         error
	subs        []chan Progress
	cancel      context.CancelFunc
	submissions int
	cacheHits   int
	submitted   time.Time
	started     time.Time
	finished    time.Time

	// Durability provenance (see Status): recovered marks a job
	// rehydrated from the store at scheduler startup, resumedFrom names
	// the checkpoint its execution continued from, and ckpts/ckptStep/
	// ckptAt track the restart checkpoints written so far.
	recovered   bool
	resumedFrom string
	ckpts       int
	ckptStep    int
	ckptAt      time.Time
	// userCancelled marks an explicit Cancel of a running job, so a
	// shutdown racing the cancellation cannot misclassify the job as
	// interrupted (and resurrect it on the next start).
	userCancelled bool
	// speculative marks a job the planner offered to the queue's lowest
	// class (immutable once offered, like specSource, the planner that
	// guessed it): it stays out of the job table until it completes,
	// bills the speculative ledger, and fires no replication hooks.
	// parked holds it back from dispatch until new cost-model history
	// lifts its gate (the queue's to write, like est, while it is
	// queued); runCtx is its current run's context, made by the queue at
	// pop and cancelled by the next demand push.
	speculative bool
	specSource  string
	parked      bool
	runCtx      context.Context
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Artifacts returns the job's derived-output store. It is non-nil for
// every scheduled job (empty when the request declared no outputs) and
// remains readable after the job is terminal, for as long as the job is
// retained.
func (j *Job) Artifacts() *ArtifactStore { return j.artifacts }

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result once it is done; before that (or on
// failure/cancellation) it returns an error.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == Done:
		return j.result, nil
	case j.err != nil:
		return nil, j.err
	default:
		return nil, fmt.Errorf("sim: job %s is %s", j.ID, j.state)
	}
}

// Wait blocks until the job is terminal or ctx is cancelled, then
// returns Result().
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.doneCh:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// maxHistory bounds the per-job progress replay buffer; when a job
// outgrows it the oldest half is dropped, so very long jobs replay only
// a recent window of steps to late watchers.
const maxHistory = 4096

// Watch subscribes to the job's progress stream. The returned channel
// first replays the steps already completed (so a subscriber attached
// after Submit — or after the job finished — still sees the stream, up
// to the maxHistory most recent), then receives one Progress per further
// root step (updates are dropped, not blocked on, when the subscriber
// lags), and is closed when the job reaches a terminal state. A watcher
// abandoning a live job must detach with Unwatch.
func (j *Job) Watch() <-chan Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Progress, len(j.history)+64)
	for _, p := range j.history {
		ch <- p
	}
	if j.state.terminal() {
		close(ch)
		return ch
	}
	j.subs = append(j.subs, ch)
	return ch
}

// Unwatch detaches a Watch subscription before the job is terminal (an
// events client disconnecting mid-run) and closes its channel, so the
// job stops buffering updates for it. Harmless on subscriptions the job
// already closed.
func (j *Job) Unwatch(ch <-chan Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, sub := range j.subs {
		if sub == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			close(sub)
			return
		}
	}
}

// publish fans a progress update out to watchers without ever blocking
// the evolution loop. All subscriber-channel operations (send here,
// close in finishLocked/Unwatch, buffer fill in Watch) happen under
// j.mu, so a send can never race a close.
func (j *Job) publish(p Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.prog = p
	j.stepsDone++
	if len(j.history) >= maxHistory {
		j.history = append(j.history[:0], j.history[maxHistory/2:]...)
	}
	j.history = append(j.history, p)
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default: // lagging subscriber: drop, never stall physics
		}
	}
}

// finish moves the job to a terminal state; it reports whether this call
// performed the transition (false when another path already had).
func (j *Job) finish(state State, res *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishLocked(state, res, err)
}

// finishLocked is finish with j.mu held — Cancel needs the
// queued→cancelled transition atomic with its state check, or a slot
// could pick the job up in between and run it to completion
// uncancellably.
func (j *Job) finishLocked(state State, res *Result, err error) bool {
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.err = err
	j.finished = j.sched.now()
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	j.cancel = nil
	j.artifacts.close()
	close(j.doneCh)
	return true
}

// Status is the JSON-facing snapshot of a job.
type Status struct {
	ID      string `json:"id"`
	Problem string `json:"problem"`
	State   string `json:"state"`
	// SubmittedAt is the job's first-submission time — with the ID, the
	// stable sort key of GET /jobs pagination.
	SubmittedAt time.Time `json:"submitted_at"`
	Workers     int       `json:"workers"`
	StepBudget  int       `json:"step_budget"`
	Progress    Progress  `json:"progress"`
	Submissions int       `json:"submissions"`
	CacheHits   int       `json:"cache_hits"`
	// Artifacts and ArtifactBytes count the derived-output products
	// retained so far (see GET /jobs/{id}/artifacts).
	Artifacts     int     `json:"artifacts"`
	ArtifactBytes int     `json:"artifact_bytes"`
	Error         string  `json:"error,omitempty"`
	Hash          string  `json:"hash,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	// Checkpoint provenance: how many restart checkpoints the job has
	// written, the root step and age of the latest one, whether the job
	// was rehydrated from the store at scheduler startup, and — for a
	// resumed execution — the checkpoint it continued from.
	Checkpoints int `json:"checkpoints,omitempty"`
	// CheckpointStep is a pointer so "checkpointed after root step 0"
	// (a real value) is distinguishable from "no checkpoints" (absent).
	CheckpointStep       *int    `json:"checkpoint_step,omitempty"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	Recovered            bool    `json:"recovered,omitempty"`
	ResumedFrom          string  `json:"resumed_from,omitempty"`
	// Tenant is the fair-share accounting bucket the submission billed
	// to; DeadlineSeconds echoes the request's QoS hint.
	Tenant          string  `json:"tenant,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Estimate is the cost model's pre-run prediction for this job
	// (predicted seconds, cells, confidence). Samples == 0 means the
	// model had no history for the problem and the numbers are vacuous.
	Estimate *costmodel.Estimate `json:"estimate,omitempty"`
	// Speculative marks a result the speculation planner computed ahead
	// of any submission — a cache hit on such a job cost its submitter
	// zero queue time.
	Speculative bool `json:"speculative,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Problem:     j.Req.Problem,
		State:       j.state.String(),
		SubmittedAt: j.submitted,
		Workers:     j.Workers,
		StepBudget:  j.StepBudget,
		Progress:    j.prog,
		Submissions: j.submissions,
		CacheHits:   j.cacheHits,
	}
	st.Tenant = j.tenant
	st.DeadlineSeconds = j.Req.DeadlineSeconds
	st.Estimate = j.est
	st.Speculative = j.speculative
	st.Artifacts, st.ArtifactBytes = j.artifacts.Count()
	if j.ckpts > 0 {
		st.Checkpoints = j.ckpts
		step := j.ckptStep
		st.CheckpointStep = &step
		if !j.ckptAt.IsZero() {
			st.CheckpointAgeSeconds = j.sched.now().Sub(j.ckptAt).Seconds()
		}
	}
	st.Recovered = j.recovered
	st.ResumedFrom = j.resumedFrom
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		st.Hash = j.result.Hash
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		st.WallSeconds = j.finished.Sub(j.started).Seconds()
	case !j.started.IsZero():
		st.WallSeconds = j.sched.now().Sub(j.started).Seconds()
	}
	return st
}

// Stats aggregates scheduler counters for /metrics.
type Stats struct {
	Submitted int64 `json:"submitted"`  // Submit calls accepted
	Coalesced int64 `json:"coalesced"`  // submissions attached to a live duplicate
	CacheHits int64 `json:"cache_hits"` // submissions answered from a completed job
	Executed  int64 `json:"executed"`   // evolutions actually run
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`  // current
	Running   int   `json:"running"` // current
	Cached    int   `json:"cached"`  // completed results retained (Done only)
	// Durability counters: jobs rehydrated from the store at startup
	// (Resumed of which re-queued to continue from a checkpoint),
	// checkpoints written, and terminal records evicted from the cache
	// (and deleted from the store) by the CacheSize bound.
	Recovered      int64 `json:"recovered"`
	Resumed        int64 `json:"resumed"`
	Checkpoints    int64 `json:"checkpoints"`
	CacheEvictions int64 `json:"cache_evictions"`
	// AdmissionRejected counts submissions refused because their cost
	// estimate exceeded Config.MaxJobSeconds.
	AdmissionRejected int64 `json:"admission_rejected"`
}

// Scheduler runs simulation jobs on a bounded set of slots, deduping
// identical requests and caching completed results. See the package
// comment for the full contract.
type Scheduler struct {
	cfg     Config
	store   Store
	blobs   *BlobCache
	baseCtx context.Context
	stop    context.CancelFunc
	fq      *fairQueue
	wg      sync.WaitGroup

	// model is the cost predictor trained on completed jobs' metrics;
	// it has its own lock and is persisted through the store, so
	// estimates survive restarts.
	model *costmodel.Model

	// spec is the speculative-execution planner's state (idle unless
	// Config.Speculate); spend is the per-tenant historical
	// wall-second ledger, demand and speculative classes separate.
	spec  *speculator
	spend *spendLedger

	// Artifact-serving counters (hot read path: updated atomically, not
	// under s.mu).
	bytesServed atomic.Int64
	notModified atomic.Int64

	// est is the estimate-error histogram: the actual/predicted wall
	// seconds ratio of every completed job that had a non-vacuous
	// estimate, exported on /metrics.
	est estimateErrors

	// repl holds the distributed-peer observation hooks, if any. An
	// atomic pointer because a Peer attaches after NewScheduler has
	// already started the slot goroutines; nil (the single-node case)
	// costs one atomic load on the paths that would fire a hook.
	repl atomic.Pointer[replHooks]

	mu       sync.Mutex
	closed   bool
	draining bool // Drain in progress: interrupted jobs checkpoint before the slots exit
	jobs     map[string]*Job
	order    []string // submit order of live+retained job IDs
	stats    Stats
	start    time.Time
	storeErr error
}

// replHooks are the scheduler's distributed-replication observation
// points: a Peer registers them to mirror job state to the job's standby
// peer. All hooks run on scheduler goroutines (submit callers and slot
// workers) and must not call back into the scheduler.
type replHooks struct {
	// scheduled fires after a fresh job's queued manifest is persisted
	// and the job registered.
	scheduled func(m JobManifest)
	// checkpoint fires after a restart checkpoint (and the manifest
	// recording it) is persisted.
	checkpoint func(m JobManifest, step int, data []byte)
	// artifact fires after a derived-output artifact is retained and
	// persisted; a takeover peer needs the pre-checkpoint artifacts too,
	// or the resumed job's artifact set would start at the resume step.
	artifact func(id string, a analysis.Artifact, hash string)
	// artifactDrop fires after retained artifacts are evicted, so the
	// standby's replicated set tracks the owner's.
	artifactDrop func(id string, names []string)
	// terminal fires after a job reaches a persisted terminal state
	// (done, failed, cancelled — not shutdown-interrupted).
	terminal func(id string)
	// model fires after the owner's cost model absorbs a new
	// observation, with the full serialized state; the peer broadcasts
	// it so every member estimates (and admits) from shared history.
	model func(state []byte)
}

// setReplHooks attaches (or, with nil, detaches) the peer hooks.
func (s *Scheduler) setReplHooks(h *replHooks) { s.repl.Store(h) }

// NewScheduler starts a scheduler with cfg's slots running. It first
// recovers the store's jobs: completed results and artifacts rehydrate
// the cache (so identical submissions are cache hits across restarts),
// and interrupted jobs are re-queued to resume from their latest
// checkpoint. Recovery problems never prevent startup; inspect them
// with RecoverState.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		store:   cfg.Store,
		blobs:   NewBlobCache(cfg.Store, cfg.HotBytes),
		baseCtx: ctx,
		stop:    cancel,
		fq:      newFairQueue(cfg.QueueDepth, cfg.TenantWeights, cfg.Clock),
		model:   costmodel.New(),
		spend:   newSpendLedger(),
		jobs:    make(map[string]*Job),
		spec:    &speculator{dead: map[string]bool{}},
		start:   cfg.Clock(),
	}
	if cfg.Speculate {
		s.fq.specCtx, s.fq.specSlots = ctx, cfg.SpeculateSlots // before the first pop
	}
	// Rehydrate the cost model before recovery: recovered Done jobs then
	// only backfill observations the persisted state is missing.
	state, err := s.store.LoadCostModel()
	if err == nil && len(state) > 0 {
		err = s.model.Decode(state)
	}
	s.noteStoreErr(err)
	// The slots are the only executors: demand work and, when nothing is
	// queued, the queue's speculative class both reach execute from here.
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.fq.pop()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
	s.recover()
	return s
}

// now is the scheduler's injected time source (Config.Clock).
func (s *Scheduler) now() time.Time { return s.cfg.Clock() }

// RecoverState reports how startup recovery went: how many persisted
// jobs were rehydrated (of which resumed mid-run) and the first error
// recovery hit, if any.
func (s *Scheduler) RecoverState() (recovered, resumed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Recovered, s.stats.Resumed, s.storeErr
}

// recover rehydrates the store's jobs at startup. Resumable
// jobs are pushed straight onto the fair queue in recovery order,
// bypassing the depth bound (refusing to re-admit persisted work would
// lose it); pushes never block, so NewScheduler (and with it `enzogo
// serve`'s HTTP listener) never waits behind hours of resumed
// evolution.
func (s *Scheduler) recover() {
	recs, err := s.store.Recover()
	s.noteStoreErr(err)
	for _, rec := range recs {
		j, err := s.recoverJob(rec)
		s.noteStoreErr(err)
		if j != nil {
			s.noteStoreErr(s.fq.push(j, false)) // closed mid-startup: the job stays interrupted in the store
		}
	}
}

// recoverJob rehydrates one persisted job: terminal states become
// retained records (done jobs with their result and artifacts — the
// warm cache), non-terminal states are returned for re-queueing,
// resuming from the latest checkpoint once a slot picks them up.
func (s *Scheduler) recoverJob(rec RecoveredJob) (resumableJob *Job, err error) {
	m := rec.Manifest
	// Pin the manifest's effective worker budget: the job's canonical
	// identity (and, via the CIC reduction order, its bitwise answer)
	// depends on it, so a resumed run must not inherit this process's
	// slot share. maxWorkers is relaxed to the pinned value on purpose —
	// recovering on a smaller host must not orphan the job.
	req := m.Request
	req.Workers = m.Workers
	r, err := resolve(req, s.cfg.slotWorkers(), max(s.cfg.TotalWorkers, m.Workers))
	if err != nil {
		return nil, fmt.Errorf("sim: recover %s: %w", m.ID, err)
	}
	j := s.newJob(m.ID, m.Request, r) // the store's key is the identity; trust it
	j.submitted, j.started, j.finished = m.SubmittedAt, m.StartedAt, m.FinishedAt
	j.recovered, j.speculative = true, m.Speculative
	j.ckpts, j.ckptStep, j.ckptAt = m.Checkpoints, m.CheckpointStep, m.CheckpointAt
	// A recovered deadline hint is stale by definition (it was relative
	// to the original submission), so resumed jobs re-queue without one;
	// the estimate is recomputed against the current model.
	est := s.model.Estimate(costQuery(r))
	j.est = &est
	// Rehydrate artifact metadata (already persisted: no store
	// write-back, and the payload bytes stay in the blob tier until a
	// reader asks), but mirror any evictions — this process may run with
	// smaller artifact budgets than the one that wrote them, and rows
	// the in-memory store refuses must not linger unreachable on disk.
	var evicted []string
	for _, m := range rec.Artifacts {
		ev, stored := j.artifacts.putRecovered(m)
		evicted = append(evicted, ev...)
		if !stored {
			evicted = append(evicted, m.Name) // refused outright: reclaim its payload too
		}
	}
	s.noteStoreErr(s.store.DeleteArtifacts(m.ID, evicted))
	// An interrupted speculative run must never resurrect as demand
	// work: it goes back to the queue's lowest class (its checkpoint
	// resumes it warm), or is forgotten when speculation is off.
	if m.Speculative && m.State != Done.String() {
		if !s.planSpeculative(j) {
			s.discardSpeculative(j)
		}
		return nil, nil
	}
	resume := false
	switch m.State {
	case Done.String():
		if rec.Result == nil {
			return nil, fmt.Errorf("sim: recover %s: done without a result", m.ID)
		}
		j.state = Done
		j.result = rec.Result
		j.prog = Progress{Step: rec.Result.Steps - 1, Time: rec.Result.Time,
			MaxLevel: rec.Result.MaxLevel, NumGrids: rec.Result.NumGrids}
		j.artifacts.close()
		close(j.doneCh)
		// Backfill the cost model from results persisted before the
		// model state was (idempotent when the state already has them).
		s.trainModel(j, rec.Result)
	case Failed.String(), Cancelled.String():
		if m.State == Failed.String() {
			j.state = Failed
		} else {
			j.state = Cancelled
		}
		j.err = fmt.Errorf("sim: job %s %s (recovered record): %s", m.ID, m.State, m.Error)
		j.artifacts.close()
		close(j.doneCh)
	default: // queued, running, interrupted: run it (again)
		resume = true
		j.submissions = 1
		j.finished = time.Time{}
	}

	registered := s.register(j, func(st *Stats) {
		st.Recovered++
		if resume {
			st.Resumed++
		}
	})
	if resume && registered {
		return j, nil
	}
	return nil, nil
}

// register makes a job visible under its ID and re-applies the cache
// bound. It refuses (dropping the job's blob references) when the
// scheduler is closed or the ID is already present.
func (s *Scheduler) register(j *Job, bump func(*Stats)) bool {
	s.mu.Lock()
	if _, dup := s.jobs[j.ID]; dup || s.closed {
		s.mu.Unlock()
		j.artifacts.release()
		return false
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	bump(&s.stats)
	doomed := s.evictLocked()
	s.mu.Unlock()
	s.reap(doomed)
	return true
}

// Config returns the scheduler's effective (default-filled) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SlotWorkers returns the par budget a job receives when its request
// doesn't pin one.
func (s *Scheduler) SlotWorkers() int { return s.cfg.slotWorkers() }

// Close stops accepting submissions, cancels queued and running jobs and
// waits for the slots to drain. Completed results remain readable. Jobs
// cut short by Close keep their non-terminal manifests (plus any
// cadence checkpoints already written), so the next scheduler on the
// same store treats them exactly like a process kill and resumes them;
// use Drain to also checkpoint the running jobs' current state first.
func (s *Scheduler) Close() { s.shutdown(false) }

// Drain is the graceful shutdown: it stops accepting submissions, lets
// every running job reach its next root-step boundary, writes a final
// restart checkpoint for each, records them as interrupted, and waits
// for the slots to exit. A following NewScheduler on the same store
// resumes the drained jobs from exactly where they stopped.
func (s *Scheduler) Drain() { s.shutdown(true) }

func (s *Scheduler) shutdown(drain bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining = drain
	s.mu.Unlock()
	// Order matters: cancel first so the slots fast-drain the backlog
	// (a cancelled baseCtx makes each queued execution exit at its first
	// context check), then close the queue. Submit cannot race the
	// close — it checks s.closed under s.mu before pushing, and shutdown
	// held that lock first; after close the slots keep draining whatever
	// is still queued, then exit. Running speculations derive from
	// baseCtx too: they checkpoint at their next root-step boundary.
	s.stop()
	s.fq.close()
	s.wg.Wait()
	s.noteStoreErr(s.store.Close())
}

// manifestOf snapshots a job into its persisted record with the given
// manifest state.
func (j *Job) manifestOf(state string) JobManifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := JobManifest{
		ID:             j.ID,
		Request:        j.Req,
		Workers:        j.Workers,
		State:          state,
		Steps:          j.stepsDone,
		Time:           j.prog.Time,
		Checkpoints:    j.ckpts,
		CheckpointStep: j.ckptStep,
		CheckpointAt:   j.ckptAt,
		ResumedFrom:    j.resumedFrom,
		SubmittedAt:    j.submitted,
		StartedAt:      j.started,
		FinishedAt:     j.finished,
		Speculative:    j.speculative,
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	return m
}

// persist writes a job-state transition to the store. Persistence
// failures after submit time are recorded (first one wins) rather than
// failing the job: a degraded store should cost durability, not answers.
func (s *Scheduler) persist(j *Job, state string) {
	if j.speculative {
		// The same configuration may have gone live on the demand path
		// while this speculation ran; that job's WAL record owns the ID.
		if cur, live := s.Get(j.ID); live && cur != j {
			return
		}
	}
	s.noteStoreErr(s.store.SaveManifest(j.manifestOf(state)))
}

// Disposition reports how a submission was satisfied.
type Disposition string

const (
	// Scheduled: a fresh job was queued for execution.
	Scheduled Disposition = "scheduled"
	// Coalesced: an identical job is already queued or running; this
	// submission rides its single execution.
	Coalesced Disposition = "coalesced"
	// CacheHit: an identical job already completed; its result answers
	// immediately.
	CacheHit Disposition = "cache"
)

// Submit schedules req, or coalesces it onto an existing identical job:
// a live job with the same canonical configuration is returned as-is
// (one execution serves all submitters), and a retained completed job
// answers immediately as a cache hit. A previously failed or cancelled
// configuration is re-run fresh. The returned job may already be
// terminal; use Job.Wait or Job.Done.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	j, _, err := s.SubmitWithDisposition(req)
	return j, err
}

// ErrClosed is returned by Submit once Close has been called — a
// transient service condition, not a bad request.
var ErrClosed = errors.New("sim: scheduler is closed")

// ErrQueueFull is returned by Submit when the backlog is at QueueDepth —
// backpressure to retry against, not a bad request.
var ErrQueueFull = errors.New("sim: job queue is full")

// SubmitWithDisposition is Submit, additionally reporting how this
// particular submission was satisfied.
func (s *Scheduler) SubmitWithDisposition(req Request) (*Job, Disposition, error) {
	r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return nil, "", err
	}
	id := r.key()
	// The estimate is computed for every submission (the 202 body and
	// the queue's fair-share charge both want it), outside s.mu — the
	// model has its own lock and may recompute its held-out selection.
	est := s.model.Estimate(costQuery(r))
	var deadline time.Time
	if req.DeadlineSeconds > 0 {
		deadline = s.now().Add(time.Duration(req.DeadlineSeconds * float64(time.Second)))
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, "", ErrClosed
	}
	if j, ok := s.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.submissions++
		if state == Done {
			j.cacheHits++
		}
		j.mu.Unlock()
		switch {
		case state == Done:
			s.stats.Submitted++
			s.stats.CacheHits++
			s.mu.Unlock()
			if j.speculative {
				s.spec.book(func(sp *speculator) { sp.hits++ }) // a pre-warmed result answered a real submission
			}
			return j, CacheHit, nil
		case !state.terminal():
			s.stats.Submitted++
			s.stats.Coalesced++
			// A coalesced submission may tighten the queued entry's
			// deadline (lock order: s.mu, then the queue's own lock).
			s.fq.tighten(id, deadline)
			s.mu.Unlock()
			return j, Coalesced, nil
		}
		// Failed or cancelled: drop the stale job and re-run below. The
		// store directory is NOT deleted (a RemoveAll must not run under
		// s.mu): the fresh run's queued manifest overwrites the stale
		// terminal one below, and any leftover artifacts are replaced by
		// the re-run's bitwise-identical products (same canonical
		// configuration) as it emits them.
		s.removeLocked(id)
	}

	// Admission control, on fresh executions only: cache hits and
	// coalesced submissions above cost nothing new, so the bound never
	// refuses them. An untrained model (Samples == 0) admits everything.
	if s.cfg.MaxJobSeconds > 0 && est.Samples > 0 && est.Seconds > s.cfg.MaxJobSeconds {
		s.stats.AdmissionRejected++
		s.mu.Unlock()
		return nil, "", &AdmissionError{Estimate: est, Limit: s.cfg.MaxJobSeconds}
	}

	j := s.newJob(id, req, r)
	j.deadline, j.est, j.submissions = deadline, &est, 1
	// The submit-time manifest write is the one store failure surfaced to
	// the submitter: a durable service that cannot record the job it just
	// accepted should say so up front, not lose it silently on restart.
	// It is a small bounded write (temp file + rename of a one-page JSON
	// document) and the WAL-before-registration ordering needs the lock;
	// the unbounded disk work (RemoveAll) never runs under s.mu.
	if err := s.store.SaveManifest(j.manifestOf(Queued.String())); err != nil {
		s.mu.Unlock()
		return nil, "", fmt.Errorf("%w: %v", ErrStore, err)
	}
	if err := s.fq.push(j, true); err != nil {
		s.mu.Unlock()
		// Roll the manifest back outside the lock; the job was never
		// registered, so nothing can resurrect the ID concurrently
		// except an identical future submit, which reap guards against.
		s.reap([]string{id})
		if errors.Is(err, ErrQueueFull) {
			return nil, "", fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, s.cfg.QueueDepth)
		}
		return nil, "", err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.stats.Submitted++
	doomed := s.evictLocked()
	s.mu.Unlock()
	s.reap(doomed)
	if h := s.repl.Load(); h != nil && h.scheduled != nil {
		h.scheduled(j.manifestOf(Queued.String()))
	}
	// Feed the speculation planner (outside every scheduler lock); the
	// push above already preempted the running speculations.
	s.onDemandScheduled(req, r)
	return j, Scheduled, nil
}

// newJob builds a fresh queued job for a resolved request; the caller
// fills in the QoS metadata before the job becomes visible.
func (s *Scheduler) newJob(id string, req Request, r resolved) *Job {
	return &Job{
		ID:         id,
		Req:        req,
		Workers:    r.opts.Workers,
		StepBudget: r.steps,
		MaxTime:    r.maxTime,
		sched:      s,
		res:        r,
		doneCh:     make(chan struct{}),
		artifacts:  newArtifactStore(s.cfg.ArtifactBytes, s.cfg.ArtifactCount, s.blobs),
		tenant:     tenantOf(req),
		submitted:  s.now(),
		ckptStep:   -1,
	}
}

// CanonicalID resolves a request to its canonical configuration hash —
// the job ID Submit would assign it — without scheduling anything. The
// distributed peer router uses it for ownership decisions before any
// state is created.
func (s *Scheduler) CanonicalID(req Request) (string, error) {
	r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return "", err
	}
	return r.key(), nil
}

// readmit re-admits a replicated job record whose owning peer died: the
// standby manifest is persisted as interrupted (this store now owns the
// WAL record) and the job is queued exactly like a startup-recovered
// one, so a slot resumes it from the latest checkpoint this store holds
// — for a takeover, the replicated one. arts are the replicated
// artifact rows (their payloads already live in this store's blob
// tier); rehydrating them keeps the resumed job's artifact set equal to
// an uninterrupted run's instead of starting at the resume step.
func (s *Scheduler) readmit(m JobManifest, arts []ArtifactMeta) error {
	m.State = ManifestInterrupted
	if err := s.store.SaveManifest(m); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	j, err := s.recoverJob(RecoveredJob{Manifest: m, Artifacts: arts})
	if err != nil {
		return err
	}
	if j == nil {
		return ErrClosed // scheduler closed mid-takeover
	}
	// The queue push holds s.mu with a closed re-check, like Submit:
	// shutdown closes the queue only after it can take the lock, so the
	// push cannot race the close. Takeover respects the depth bound —
	// unlike startup recovery, the donor peer still holds the record and
	// retries, so backpressure loses nothing.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.fq.push(j, true); err != nil {
		s.removeLocked(m.ID)
		s.stats.Recovered--
		s.stats.Resumed--
		if errors.Is(err, ErrQueueFull) {
			return fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, s.cfg.QueueDepth)
		}
		return err
	}
	return nil
}

// Get returns the job with the given ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all retained jobs in submit order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel stops the job with the given ID (queued jobs never start;
// running jobs stop at the next root-step boundary). It reports whether
// a live job was found.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch {
	case j.state.terminal():
		j.mu.Unlock()
		return false
	case j.state == Queued:
		// Atomic with the state check: a slot claiming the job takes
		// j.mu to move it to Running, so it cannot slip in between.
		j.finishLocked(Cancelled, nil, fmt.Errorf("sim: job %s cancelled while queued", id))
		j.mu.Unlock()
		// Excise the queued entry so it stops occupying depth and the
		// tenant gauges; if a slot already popped it, the terminal check
		// in execute skips it anyway.
		s.fq.remove(id)
		s.settle(j, Cancelled, func(st *Stats) { st.Cancelled++ })
		return true
	default:
		cancel := j.cancel
		j.userCancelled = true
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, j := range s.jobs {
		switch j.State() {
		case Queued:
			st.Queued++
		case Running:
			st.Running++
		case Done:
			st.Cached++
		}
	}
	return st
}

// Uptime returns how long the scheduler has been running.
func (s *Scheduler) Uptime() time.Duration { return s.now().Sub(s.start) }

// removeLocked forgets a job in memory; s.mu must be held. The caller
// owns the matching store deletion (synchronously for a re-run of a
// stale configuration, via reap after unlocking for evictions). The
// job's blob references are dropped so the shared payload tier does not
// pin bytes nobody can reach.
func (s *Scheduler) removeLocked(id string) {
	if j, ok := s.jobs[id]; ok {
		j.artifacts.release()
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// evictLocked drops retained terminal jobs beyond the cache size:
// failed/cancelled records go first (a failure record must never evict a
// reusable completed result), then Done results oldest-first; s.mu must
// be held. It returns the evicted IDs for the caller to reap from the
// store once the lock is released — the cache bound is the store's
// retention policy, but a disk RemoveAll must not run under the global
// mutex every HTTP handler takes.
func (s *Scheduler) evictLocked() (doomed []string) {
	terminal := 0
	for _, j := range s.jobs {
		if j.State().terminal() {
			terminal++
		}
	}
	for _, includeDone := range []bool{false, true} {
		for i := 0; terminal > s.cfg.CacheSize && i < len(s.order); {
			j := s.jobs[s.order[i]]
			if st := j.State(); st.terminal() && (includeDone || st != Done) {
				doomed = append(doomed, s.order[i])
				s.removeLocked(s.order[i])
				s.stats.CacheEvictions++
				terminal--
				continue // order shifted down; re-examine index i
			}
			i++
		}
	}
	return doomed
}

// reap deletes evicted jobs from the store, outside s.mu. A job whose ID
// came back to life in the meantime (the same configuration resubmitted
// in the eviction window) is skipped; should the check itself race a
// concurrent resubmission, the worst case is a deleted queued-state
// manifest, which the job's next state transition rewrites.
func (s *Scheduler) reap(doomed []string) {
	for _, id := range doomed {
		if _, live := s.Get(id); live {
			continue
		}
		s.noteStoreErr(s.store.DeleteJob(id))
	}
}

// execute runs one popped job — demand or speculative — on the calling
// slot goroutine; it is the only caller of evolve and the only place a
// run's outcome is classified.
func (s *Scheduler) execute(j *Job) {
	// A speculation runs under the context the queue made at pop (a
	// demand push cancels it); a demand job gets its own, for Cancel.
	ctx, cancel := j.runCtx, context.CancelFunc(nil)
	reoffered := false
	if j.speculative {
		if !s.admitSpeculative(j) {
			return
		}
		// The speculative slot goes back to the queue exactly once: just
		// before a preempted job is re-offered (it may be popped again at
		// once), else when this slot is about to pop again — until then
		// the queue counts it as capacity a demand push may claim.
		defer func() {
			if !reoffered {
				s.fq.retire(j.ID)
			}
		}()
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
		defer cancel()
	}

	j.mu.Lock()
	if j.state.terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = Running // also for a preempted speculation's next run: it is invisible until adopted
	j.cancel = cancel
	j.started = s.now()
	j.resumedFrom = "" // names what THIS run resumed from; a re-run of a preempted speculation starts over
	j.mu.Unlock()
	s.persist(j, Running.String())

	if j.speculative {
		s.spec.book(func(sp *speculator) { sp.started++ })
	} else {
		s.mu.Lock()
		s.stats.Executed++
		s.mu.Unlock()
	}

	t0 := s.now()
	res, err := s.evolve(ctx, j)
	elapsed := s.now().Sub(t0).Seconds()
	stopped := ctx.Err() != nil
	// The spend ledger records observed wall seconds per tenant: demand
	// seconds are what -tenant-weights should be derived from,
	// speculative ones enforce the speculation budget.
	s.spend.charge(j.tenant, j.speculative, elapsed)
	j.mu.Lock()
	done, resumed, warm := j.stepsDone, j.resumedFrom != "", j.ckpts > 0
	j.mu.Unlock()
	wasted := 0.0 // speculative seconds that left neither a result nor a checkpoint
	if !warm {
		wasted = elapsed
	}
	if j.speculative && resumed {
		s.spec.book(func(sp *speculator) { sp.resumed++ })
	}
	switch {
	case err == nil:
		s.noteStoreErr(s.store.SaveResult(j.ID, res))
		// Feed the cost model (persisting and replicating its state) and
		// score the pre-run estimate against what happened — BEFORE the
		// job turns terminal, so a waiter that saw Done estimates from a
		// model that already holds this run.
		s.trainModel(j, res)
		s.est.observe(j.est, res.Metrics.WallSeconds)
		// A speculation becomes visible only now, adopted into the result
		// cache — unless the same configuration went live through the
		// demand path meanwhile; that execution is then authoritative.
		if j.finish(Done, res, nil) && (!j.speculative || s.register(j, func(*Stats) {})) {
			s.settle(j, Done, func(st *Stats) { st.Succeeded++ })
		}
		if j.speculative {
			s.spec.book(func(sp *speculator) { sp.completed++ })
		}
	case stopped && s.baseCtx.Err() != nil && !j.wasUserCancelled():
		// The service is stopping, not the submitter cancelling: the
		// in-process job ends, but the persisted record stays
		// non-terminal ("interrupted") so the next scheduler on this
		// store resumes it — from the freshly written drain checkpoint,
		// its latest cadence checkpoint, or scratch. An explicit Cancel
		// that raced the shutdown stays cancelled (next case), never
		// resurrected.
		if j.finish(Cancelled, nil, fmt.Errorf("sim: job %s interrupted by shutdown after %d steps", j.ID, done)) {
			s.persist(j, ManifestInterrupted)
			if j.speculative {
				s.spec.book(func(sp *speculator) { sp.wasted += wasted })
			} else {
				s.count(func(st *Stats) { st.Cancelled++ })
			}
		}
	case stopped && j.speculative:
		// A higher class arrived. The checkpoint evolve wrote at the
		// root-step boundary resumes this candidate — or a demand run of
		// the same configuration — warm; the job itself goes back to the
		// lowest class. A refusal (the queue closed, or the ID was
		// re-planned or went live meanwhile) leaves the records to
		// whoever holds the ID now.
		s.persist(j, ManifestInterrupted)
		s.fq.retire(j.ID)
		reoffered = true
		if s.planSpeculative(j) {
			s.trimSpeculativeCheckpoints()
		} else {
			j.artifacts.release()
		}
		s.spec.book(func(sp *speculator) { sp.preempted++; sp.wasted += wasted })
	case stopped:
		if j.finish(Cancelled, nil, fmt.Errorf("sim: job %s cancelled after %d steps", j.ID, done)) {
			s.settle(j, Cancelled, func(st *Stats) { st.Cancelled++ })
		}
	case j.speculative:
		// Never retried: the configuration fails the same way each time.
		j.finish(Failed, nil, err)
		s.discardSpeculative(j)
		s.spec.book(func(sp *speculator) { sp.failed++; sp.wasted += elapsed; sp.dead[j.ID] = true })
	default:
		if j.finish(Failed, nil, err) {
			s.settle(j, Failed, func(st *Stats) { st.Failed++ })
		}
	}
}

// settle records a finished job's terminal outcome: the manifest turns
// terminal, its checkpoints go (nothing can resume from them now), and
// — demand jobs only; an adopted speculation was never counted or
// replicated — the outcome counter is bumped and the peers are told.
func (s *Scheduler) settle(j *Job, state State, bump func(*Stats)) {
	s.persist(j, state.String())
	s.noteStoreErr(s.store.DeleteCheckpoints(j.ID))
	if j.speculative {
		return
	}
	s.count(bump)
	s.notifyTerminal(j.ID)
}

// wasUserCancelled reports whether an explicit Cancel hit this job.
func (j *Job) wasUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}

// noteStoreErr records a persistence failure (the first one wins) for
// RecoverState/healthz visibility; nil is ignored, so call sites wrap
// the store call directly.
func (s *Scheduler) noteStoreErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.storeErr == nil {
		s.storeErr = err
	}
	s.mu.Unlock()
}

// count updates the terminal-outcome counters and re-applies the cache
// bound (a completing job can push the retained-terminal count over it).
func (s *Scheduler) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	doomed := s.evictLocked()
	s.mu.Unlock()
	s.reap(doomed)
}

// evolve builds the job's problem — or, when the store holds a
// checkpoint for it, decodes and resumes that — and advances it under
// ctx, streaming per-step progress to watchers. A panic in the physics
// (bad knob combinations can produce them) is converted to a job failure
// rather than taking the service down.
func (s *Scheduler) evolve(ctx context.Context, j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if wp, ok := r.(par.WorkerPanic); ok {
				err = fmt.Errorf("sim: job %s panicked: %v", j.ID, wp.Value)
				return
			}
			err = fmt.Errorf("sim: job %s panicked: %v", j.ID, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err // scheduler shutting down: skip the (costly) IC build
	}
	// The derived-output plan runs at root-step boundaries inside the
	// observer, on the job's own worker budget; its wall-clock is billed
	// separately from the physics (Metrics.AnalysisSeconds). An
	// evaluation error fails the job — the request was validated at
	// submit, so one here is a real service defect, not user error.
	plan, err := analysis.NewOutputPlan(j.res.outputs)
	if err != nil {
		return nil, err
	}
	// The checkpoint cadence rides the same OutputPlan machinery as the
	// data products, in a plan of its own: its artifacts route to the
	// store's checkpoint files, not the artifact index, and it has no
	// Finish guarantee (a completed job deletes its checkpoints instead).
	var ckptPlan *analysis.OutputPlan
	if s.cfg.CheckpointEvery > 0 || s.cfg.CheckpointTime > 0 {
		ckptPlan, err = analysis.NewOutputPlan([]analysis.OutputRequest{{
			Kind:      analysis.KindCheckpoint,
			Every:     s.cfg.CheckpointEvery,
			EveryTime: s.cfg.CheckpointTime,
		}})
		if err != nil {
			return nil, err
		}
	}

	// Build or resume. A job with a checkpoint decodes it and continues
	// at the following step, keeping the interrupted run's global step
	// numbering so cadences and artifact names line up.
	sm, startStep, err := s.buildOrResume(j)
	if err != nil {
		return nil, err
	}
	if startStep > 0 {
		plan.Prime(sm.H.Time)
		if ckptPlan != nil {
			ckptPlan.Prime(sm.H.Time)
		}
	}

	var analysisWall time.Duration
	var outputErr error
	emit := func(a analysis.Artifact) error {
		evicted, hash, stored := j.artifacts.Put(a)
		if stored {
			// Persist only what the in-memory store retained: an
			// artifact refused by the byte budget must not linger
			// unreachable on disk.
			s.noteStoreErr(s.store.SaveArtifact(j.ID, a, hash))
			if h := s.repl.Load(); h != nil && h.artifact != nil {
				h.artifact(j.ID, a, hash)
			}
		}
		s.noteStoreErr(s.store.DeleteArtifacts(j.ID, evicted))
		if len(evicted) > 0 {
			if h := s.repl.Load(); h != nil && h.artifactDrop != nil {
				h.artifactDrop(j.ID, evicted)
			}
		}
		return nil
	}
	// runCtx lets an output-evaluation error stop the physics at the next
	// root-step boundary instead of burning the remaining step budget on
	// a job already doomed to fail.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	taken, err := sm.Run(runCtx, core.RunOpts{
		MaxSteps:  j.res.steps - startStep,
		MaxTime:   j.res.maxTime,
		StartStep: startStep,
		Observe: func(info core.StepInfo) {
			j.publish(Progress{
				Step:     info.Step,
				Time:     info.Time,
				Dt:       info.Dt,
				MaxLevel: info.MaxLevel,
				NumGrids: info.NumGrids,
			})
			if outputErr != nil {
				return
			}
			t0 := time.Now()
			if outputErr = plan.Step(sm.H, j.res.problem, info.Step, j.res.opts.Workers, emit); outputErr != nil {
				cancelRun()
			}
			analysisWall += time.Since(t0)
		},
		Checkpoint: func(info core.StepInfo) error {
			if ckptPlan == nil {
				return nil
			}
			return ckptPlan.Step(sm.H, j.res.problem, info.Step, j.res.opts.Workers,
				func(a analysis.Artifact) error { return s.checkpoint(j, info.Step, a.Data) })
		},
	})
	steps := startStep + taken
	// outputErr outranks the cancellation it triggered (execute inspects
	// the outer ctx, so this still reports as Failed, not Cancelled).
	if outputErr != nil {
		return nil, outputErr
	}
	if err != nil {
		// A run stopped on purpose at this root-step boundary — a
		// speculation preempted or caught by shutdown, any job during a
		// graceful drain — persists the state it reached, so its next run
		// resumes here, not at the last cadence checkpoint.
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if ctx.Err() != nil && taken > 0 && !j.wasUserCancelled() && (j.speculative || draining) {
			data, ckErr := snapshot.Encode(sm.H, j.res.problem)
			if ckErr == nil {
				ckErr = s.checkpoint(j, steps-1, data)
			}
			s.noteStoreErr(ckErr)
		}
		return nil, err
	}
	t0 := time.Now()
	if err := plan.Finish(sm.H, j.res.problem, steps-1, j.res.opts.Workers, emit); err != nil {
		return nil, err
	}
	analysisWall += time.Since(t0)

	h := sm.H
	metrics := perf.CollectJobMetrics(h.Stats, h.Timing, sm.Wall())
	metrics.AnalysisSeconds = analysisWall.Seconds()
	metrics.ArtifactCount, metrics.ArtifactBytes = j.artifacts.Count()
	return &Result{
		Hash:      h.ChecksumHex(),
		Steps:     steps,
		Time:      h.Time,
		MaxLevel:  h.MaxLevel(),
		NumGrids:  h.NumGrids(),
		SDR:       h.SpatialDynamicRange(),
		Artifacts: metrics.ArtifactCount,
		Metrics:   metrics,
	}, nil
}

// buildOrResume constructs the job's simulation: from the store's
// latest checkpoint for the job when there is one — a recovered job's
// cadence or drain checkpoint, a preempted speculation's, or the one a
// speculation left for the demand run of the same configuration — else
// from the problem registry. Returns the global index of the first step
// still to take. A checkpoint that fails to decode falls back to a
// fresh build — a lost resume costs recomputation, never the job.
func (s *Scheduler) buildOrResume(j *Job) (*core.Simulation, int, error) {
	ck, err := s.store.LatestCheckpoint(j.ID)
	s.noteStoreErr(err)
	if ck != nil && ck.Step < j.res.steps {
		h, problem, err := snapshot.Read(bytes.NewReader(ck.Data))
		if err == nil {
			// Workers is a runtime knob of the saving process; the
			// resolved budget (identical by construction, pinned by the
			// manifest) is authoritative for this host.
			h.Cfg.Workers = j.res.opts.Workers
			j.mu.Lock()
			j.resumedFrom = fmt.Sprintf("checkpoint step %d", ck.Step)
			j.mu.Unlock()
			return core.Resume(h, problem), ck.Step + 1, nil
		}
		s.noteStoreErr(fmt.Errorf("sim: job %s checkpoint unreadable, rebuilding: %w", j.ID, err))
	}
	sm, err := core.New(j.res.problem, func(o *problems.Opts) { *o = j.res.opts })
	if err != nil {
		return nil, 0, err
	}
	return sm, 0, nil
}

// checkpoint persists one restart point and updates the job's
// provenance counters and manifest (the WAL records the checkpoint, so
// a kill immediately after still resumes from it).
func (s *Scheduler) checkpoint(j *Job, step int, data []byte) error {
	if err := s.store.SaveCheckpoint(j.ID, step, data); err != nil {
		return err
	}
	j.mu.Lock()
	j.ckpts++
	j.ckptStep = step
	j.ckptAt = s.now()
	j.mu.Unlock()
	s.mu.Lock()
	s.stats.Checkpoints++
	s.mu.Unlock()
	s.persist(j, Running.String())
	if h := s.repl.Load(); h != nil && h.checkpoint != nil && !j.speculative {
		h.checkpoint(j.manifestOf(Running.String()), step, data)
	}
	return nil
}

// notifyTerminal fires the peer terminal hook, if attached, after a job
// reaches a persisted terminal state.
func (s *Scheduler) notifyTerminal(id string) {
	if h := s.repl.Load(); h != nil && h.terminal != nil {
		h.terminal(id)
	}
}

// tenantOf is the fair-share bucket of a request: its tenant field, or
// "default" when unset.
func tenantOf(req Request) string {
	if req.Tenant == "" {
		return "default"
	}
	return req.Tenant
}

// costQuery maps a resolved configuration onto the cost model's
// feature space: the nominal work unit rootn³×steps the linear
// predictor fits against, and the canonical knob vector the NN
// predictor measures distance in.
func costQuery(r resolved) costmodel.Query {
	feats := map[string]float64{
		"rootn":    float64(r.opts.RootN),
		"maxlevel": float64(r.opts.MaxLevel),
		"workers":  float64(r.opts.Workers),
	}
	if r.opts.Chemistry {
		feats["chemistry"] = 1
	}
	for k, v := range r.opts.Extra {
		feats["knob:"+k] = v
	}
	n := float64(r.opts.RootN)
	return costmodel.Query{Problem: r.problem, Work: n * n * n * float64(r.steps), Features: feats}
}

// trainModel feeds one completed job's metrics into the cost model.
// When the observation is new, the model state is persisted (so
// estimates survive restarts) and handed to the peer model hook for
// replication.
func (s *Scheduler) trainModel(j *Job, res *Result) {
	if res == nil || res.Metrics.WallSeconds <= 0 {
		return
	}
	q := costQuery(j.res)
	changed := s.model.Observe(costmodel.Sample{
		JobID:     j.ID,
		Problem:   q.Problem,
		Features:  q.Features,
		Work:      q.Work,
		Seconds:   res.Metrics.WallSeconds,
		Cells:     float64(res.Metrics.CellUpdates),
		OpSeconds: res.Metrics.OpSeconds(),
	})
	if !changed {
		return
	}
	// A model that just learned re-ranks the speculative backlog and may
	// release its confidence-gated candidates.
	s.repriceSpeculative()
	state := s.model.Encode()
	s.noteStoreErr(s.store.SaveCostModel(state))
	if h := s.repl.Load(); h != nil && h.model != nil {
		h.model(state)
	}
}

// Estimate predicts the cost of req against the recorded job history
// without scheduling anything. Estimate.Samples == 0 means the model
// has no history for the problem and the numbers are vacuous.
func (s *Scheduler) Estimate(req Request) (costmodel.Estimate, error) {
	r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return costmodel.Estimate{}, err
	}
	return s.model.Estimate(costQuery(r)), nil
}

// CostModelState returns the serialized cost model, for peer
// replication and inspection.
func (s *Scheduler) CostModelState() []byte { return s.model.Encode() }

// CostModelSamples reports how many observations the cost model holds
// across all problems.
func (s *Scheduler) CostModelSamples() int { return s.model.TotalSamples() }

// MergeCostModel unions a replicated peer's cost-model state into the
// local model, persisting on change. Receivers never re-broadcast, so
// replication cannot loop.
func (s *Scheduler) MergeCostModel(state []byte) error {
	changed, err := s.model.Merge(state)
	if err != nil {
		return err
	}
	if changed {
		s.noteStoreErr(s.store.SaveCostModel(s.model.Encode()))
	}
	return nil
}

// QueueStats reports the dispatch backlog: total queued jobs and the
// per-tenant breakdown (tenants with nothing queued are omitted).
func (s *Scheduler) QueueStats() (depth int, perTenant map[string]int) {
	return s.fq.snapshot()
}

// AdmissionError is returned by Submit when the cost model predicts
// the job would exceed Config.MaxJobSeconds; the estimate rides along
// so clients (and the HTTP 429 body) can see why.
type AdmissionError struct {
	// Estimate is the prediction that tripped the bound.
	Estimate costmodel.Estimate
	// Limit is the configured MaxJobSeconds.
	Limit float64
}

// Error describes the rejected prediction against the bound.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sim: predicted %.3gs exceeds the max-job-seconds admission bound %gs", e.Estimate.Seconds, e.Limit)
}

// estimateBuckets are the upper bounds of the estimate-error histogram:
// the actual/predicted wall-seconds ratio of completed jobs (1 = a
// perfect estimate; the final implicit bucket is +Inf).
var estimateBuckets = [...]float64{0.25, 0.5, 0.8, 1.25, 2, 4}

// estimateErrors is the /metrics histogram of actual/predicted ratios.
type estimateErrors struct {
	mu      sync.Mutex
	buckets [len(estimateBuckets) + 1]int64 // cumulative-on-read; stored per-bucket
	count   int64
	sum     float64
}

// observe scores one finished job's estimate. Vacuous estimates
// (Samples == 0) and degenerate values are skipped — the histogram
// measures the trained model only.
func (e *estimateErrors) observe(est *costmodel.Estimate, actual float64) {
	if est == nil || est.Samples == 0 || est.Seconds <= 0 || actual <= 0 {
		return
	}
	ratio := actual / est.Seconds
	e.mu.Lock()
	defer e.mu.Unlock()
	i := 0
	for i < len(estimateBuckets) && ratio > estimateBuckets[i] {
		i++
	}
	e.buckets[i]++
	e.count++
	e.sum += ratio
}

// snapshot returns the per-bucket counts plus the total count and sum
// of observed ratios.
func (e *estimateErrors) snapshot() (buckets [len(estimateBuckets) + 1]int64, count int64, sum float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buckets, e.count, e.sum
}

// EstimateErrorStats reports how many completed jobs had their estimate
// scored and the mean actual/predicted ratio (1 = unbiased).
func (s *Scheduler) EstimateErrorStats() (count int64, meanRatio float64) {
	_, n, sum := s.est.snapshot()
	if n == 0 {
		return 0, 0
	}
	return n, sum / float64(n)
}
