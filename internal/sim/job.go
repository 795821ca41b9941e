package sim

// One job's lifecycle: states, progress stream, watchers, status, manifest.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim/costmodel"
)

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

// Progress is one per-root-step update streamed to job watchers: the
// StepInfo core.Run hands its observer, as is.
type Progress = core.StepInfo

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
	// class is what the job runs for, immutable once the job is visible
	// or offered. A speculation stays out of the job table until it
	// completes; parked holds it back from dispatch until new cost-model
	// history lifts its gate (the queue's to write, like est, while it
	// is queued), and runCtx is its current run's context, made by the
	// queue at pop and cancelled by the next demand push.
	class  jobClass
	parked bool
	runCtx context.Context
}

// jobClass is what a job runs for: a submitter's demand, or a planner's
// guess from an announced sweep or from submission lineage. Counters and
// the spend ledger are indexed by it; every other way a speculation
// differs is decided at one place (docs/ARCHITECTURE.md lists them).
type jobClass uint8

const (
	classDemand  jobClass = iota // a submission, dispatched by fair share
	classSweep                   // a speculation on an announced sweep row
	classLineage                 // a speculation on a lineage-inferred neighbour
	numClasses
)

// speculative reports whether the class is one of the planner's guesses.
func (c jobClass) speculative() bool { return c != classDemand }

// specSum totals a per-class column over the speculative classes.
func specSum[T int64 | float64](col [numClasses]T) T { return col[classSweep] + col[classLineage] }

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
		Workers:     j.res.opts.Workers,
		StepBudget:  j.res.steps,
		Progress:    j.prog,
		Submissions: j.submissions,
		CacheHits:   j.cacheHits,
	}
	st.Tenant = j.tenant
	st.DeadlineSeconds = j.Req.DeadlineSeconds
	st.Estimate = j.est
	st.Speculative = j.class.speculative()
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

// newJob builds a fresh queued job for a resolved request; the caller
// fills in the QoS metadata before the job becomes visible.
func (s *Scheduler) newJob(id string, req Request, r resolved) *Job {
	return &Job{
		ID:        id,
		Req:       req,
		sched:     s,
		res:       r,
		doneCh:    make(chan struct{}),
		artifacts: newArtifactStore(s.cfg.ArtifactBytes, s.cfg.ArtifactCount, s.blobs),
		tenant:    tenantOf(req),
		submitted: s.now(),
		ckptStep:  -1,
	}
}

// manifestOf snapshots a job into its persisted record with the given
// manifest state.
func (j *Job) manifestOf(state string) JobManifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := JobManifest{
		ID:             j.ID,
		Request:        j.Req,
		Workers:        j.res.opts.Workers,
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
		Speculative:    j.class.speculative(),
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	return m
}

// wasUserCancelled reports whether an explicit Cancel hit this job.
func (j *Job) wasUserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}

// tenantOf is the fair-share bucket of a request: its tenant field, or
// "default" when unset.
func tenantOf(req Request) string {
	if req.Tenant == "" {
		return "default"
	}
	return req.Tenant
}
