package sim

// How a job enters the scheduler — submission, startup recovery, peer
// takeover and adopted speculation all go through admitLocked — and how
// the cache bound evicts it.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim/costmodel"
)

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
	var deadline time.Time
	if req.DeadlineSeconds > 0 {
		deadline = s.now().Add(time.Duration(req.DeadlineSeconds * float64(time.Second)))
	}

	// Look up before estimating: a cache hit or a coalesced submission
	// never touches the cost model. Only a fresh admission drops s.mu for
	// the estimate (the model has its own lock and may recompute its
	// held-out selection) and then looks the ID up again, because an
	// identical submission may have been admitted meanwhile.
	s.mu.Lock()
	j, disp, err := s.answerLocked(id, deadline)
	var est *costmodel.Estimate // priced on the fresh path only, so a hit allocates none
	if j == nil && err == nil {
		s.mu.Unlock()
		e := s.model.Estimate(costQuery(r))
		est = &e
		s.mu.Lock()
		j, disp, err = s.answerLocked(id, deadline)
	}
	if j != nil || err != nil {
		s.mu.Unlock()
		return j, disp, err
	}

	// Admission control, on fresh executions only: cache hits and
	// coalesced submissions above cost nothing new, so the bound never
	// refuses them. An untrained model (Samples == 0) admits everything.
	if s.cfg.MaxJobSeconds > 0 && est.Samples > 0 && est.Seconds > s.cfg.MaxJobSeconds {
		s.stats.AdmissionRejected++
		s.mu.Unlock()
		return nil, "", &AdmissionError{Estimate: *est, Limit: s.cfg.MaxJobSeconds}
	}

	j = s.newJob(id, req, r)
	j.deadline, j.est, j.submissions = deadline, est, 1
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
	doomed, err := s.admitLocked(j, admitBounded, func(st *Stats) { st.Submitted++ })
	s.mu.Unlock()
	if err != nil {
		// Roll the manifest back outside the lock; the job was never
		// admitted, so nothing can resurrect the ID concurrently except an
		// identical future submit, which reap guards against.
		s.reap([]string{id})
		return nil, "", err
	}
	s.reap(doomed)
	if p := s.replicaPeer(j); p != nil {
		p.replicate(j.manifestOf(Queued.String()), -1, nil)
	}
	// Feed the speculation planner (outside every scheduler lock); the
	// push above already preempted the running speculations.
	s.onDemandScheduled(req, r)
	return j, Scheduled, nil
}

// answerLocked satisfies a submission of id from the job table when it
// can; s.mu must be held. A retained completed job is a cache hit, a live
// one coalesces (and may have its queued deadline tightened), and a failed
// or cancelled one is dropped so the caller re-runs it. A nil job with a
// nil error means the ID needs a fresh execution.
func (s *Scheduler) answerLocked(id string, deadline time.Time) (*Job, Disposition, error) {
	if s.closed {
		return nil, "", ErrClosed
	}
	j, ok := s.jobs[id]
	if !ok {
		return nil, "", nil
	}
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
		s.runs[answeredHit][j.class]++ // counts a pre-warmed result answering a real submission
		return j, CacheHit, nil
	case !state.terminal():
		s.stats.Submitted++
		s.stats.Coalesced++
		// A coalesced submission may tighten the queued entry's deadline
		// (lock order: s.mu, then the queue's own lock).
		s.fq.tighten(id, deadline)
		return j, Coalesced, nil
	}
	// Failed or cancelled: drop the stale job. The store directory is NOT
	// deleted (a RemoveAll must not run under s.mu): the fresh run's queued
	// manifest overwrites the stale terminal one, and any leftover artifacts
	// are replaced by the re-run's bitwise-identical products (same
	// canonical configuration) as it emits them.
	s.removeLocked(id)
	return nil, "", nil
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

// RecoverState reports how startup recovery went: how many persisted
// jobs were rehydrated (of which resumed mid-run) and the first error
// recovery hit, if any.
func (s *Scheduler) RecoverState() (recovered, resumed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Recovered, s.stats.Resumed, s.storeErr
}

// admission is admitLocked's queue step.
type admission int

const (
	// admitRetained: none, the job is already terminal.
	admitRetained admission = iota
	// admitBounded: refused at QueueDepth; the caller (a submitter, a peer
	// whose donor still holds the replica) can retry.
	admitBounded
	// admitUnbounded: startup recovery must not lose persisted work.
	admitUnbounded
)

// errDuplicate refuses an ID already in the job table.
var errDuplicate = errors.New("sim: job already present")

// admitLocked is the one way into the scheduler; s.mu must be held
// (shutdown closes the queue only after taking it, so the push cannot
// race the close). A refusal changes nothing; the evicted IDs are the
// caller's to reap once it has released s.mu.
func (s *Scheduler) admitLocked(j *Job, how admission, bump func(*Stats)) (doomed []string, err error) {
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.jobs[j.ID]; dup {
		return nil, fmt.Errorf("%w: %s", errDuplicate, j.ID)
	}
	if how != admitRetained {
		err := s.fq.push(j, how == admitBounded)
		if errors.Is(err, ErrQueueFull) {
			err = fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, s.cfg.QueueDepth)
		}
		if err != nil {
			return nil, err
		}
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	bump(&s.stats)
	return s.evictLocked(), nil
}

// admit is admitLocked for callers not holding s.mu.
func (s *Scheduler) admit(j *Job, how admission, bump func(*Stats)) error {
	s.mu.Lock()
	doomed, err := s.admitLocked(j, how, bump)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.reap(doomed)
	return nil
}

// recover rehydrates the store's jobs at startup. Pushes never block, so
// NewScheduler never waits behind hours of resumed evolution.
func (s *Scheduler) recover() {
	recs, err := s.store.Recover()
	s.noteStoreErr(err)
	for _, rec := range recs {
		j, evicted, err := s.recoverJob(rec)
		if err == nil {
			s.noteStoreErr(s.store.DeleteArtifacts(rec.Manifest.ID, evicted))
			err = s.restore(j, admitUnbounded)
		}
		s.noteStoreErr(err)
	}
}

// recoverJob rebuilds a *Job from its persisted record: terminal records
// come back terminal (done ones with result and artifacts — the warm
// cache), anything else Queued. It admits and writes nothing (see
// restore); the caller deletes the returned evicted rows from the store.
func (s *Scheduler) recoverJob(rec RecoveredJob) (j *Job, evicted []string, err error) {
	m := rec.Manifest
	// Resume at this process's slot share: the worker count is not identity,
	// and a bigger host's pin must neither orphan nor oversubscribe this one.
	req := m.Request
	req.Workers = 0
	r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: recover %s: %w", m.ID, err)
	}
	if m.State == Done.String() && rec.Result == nil {
		return nil, nil, fmt.Errorf("sim: recover %s: done without a result", m.ID)
	}
	j = s.newJob(m.ID, m.Request, r) // the store's key is the identity; trust it
	j.submitted, j.started, j.finished = m.SubmittedAt, m.StartedAt, m.FinishedAt
	j.recovered = true
	if m.Speculative {
		j.class = classSweep // the planner is not persisted: it runs ungated, like a sweep row
	}
	j.ckpts, j.ckptStep, j.ckptAt = m.Checkpoints, m.CheckpointStep, m.CheckpointAt
	// A recovered deadline hint is stale by definition (it was relative
	// to the original submission), so resumed jobs re-queue without one;
	// the estimate is recomputed against the current model.
	est := s.model.Estimate(costQuery(r))
	j.est = &est
	// Rehydrate artifact metadata (already persisted: no store
	// write-back, and the payload bytes stay in the blob tier until a
	// reader asks), but collect any evictions — this process may run with
	// smaller artifact budgets than the one that wrote them, and rows
	// the in-memory store refuses must not linger unreachable on disk.
	for _, m := range rec.Artifacts {
		ev, stored := j.artifacts.putRecovered(m)
		evicted = append(evicted, ev...)
		if !stored {
			evicted = append(evicted, m.Name) // refused outright: reclaim its payload too
		}
	}
	switch m.State {
	case Done.String():
		j.state = Done
		j.result = rec.Result
		j.prog = Progress{Step: rec.Result.Steps - 1, Time: rec.Result.Time,
			MaxLevel: rec.Result.MaxLevel, NumGrids: rec.Result.NumGrids}
	case Failed.String(), Cancelled.String():
		j.state = Cancelled
		if m.State == Failed.String() {
			j.state = Failed
		}
		j.err = fmt.Errorf("sim: job %s %s (recovered record): %s", m.ID, m.State, m.Error)
	default: // queued, running, interrupted: run it (again)
		j.finished = time.Time{}
		if !j.class.speculative() { // a speculation has had no submitter yet
			j.submissions = 1
		}
	}
	if j.state.terminal() {
		j.artifacts.close()
		close(j.doneCh)
	}
	return j, evicted, nil
}

// restore admits a job recoverJob rebuilt. A done record backfills the
// cost model from results persisted before the model state was. An
// interrupted speculative run must never resurrect as demand work: it
// goes back to the queue's lowest class (its checkpoint resumes it
// warm), or is forgotten when speculation is off.
func (s *Scheduler) restore(j *Job, resume admission) error {
	switch {
	case j.state.terminal():
		if j.state == Done {
			s.trainModel(j, j.result)
		}
		return s.admit(j, admitRetained, func(st *Stats) { st.Recovered++ })
	case j.class.speculative():
		if !s.planSpeculative(j) {
			s.discardSpeculative(j)
		}
		return nil
	}
	return s.admit(j, resume, func(st *Stats) { st.Recovered++; st.Resumed++ })
}

// readmit re-admits a replicated job whose owning peer died, from its
// manifest and the artifact rows this store holds for it: the job is
// queued like a startup-recovered one, under the depth bound, to resume
// from the replicated checkpoint. Only an admitted job writes the store
// (its manifest, as interrupted; its rows over this peer's budgets go),
// so a refused takeover changes nothing a restart or a retry would see.
func (s *Scheduler) readmit(m JobManifest) error {
	rows, err := s.store.Artifacts(m.ID)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.State = ManifestInterrupted
	j, evicted, err := s.recoverJob(RecoveredJob{Manifest: m, Artifacts: rows})
	if err == nil {
		err = s.restore(j, admitBounded)
	}
	if err != nil {
		return err
	}
	// Under j.mu, so a slot that has already started the job (and
	// persists its own transitions and rows) is never overwritten.
	// noteStoreErr takes s.mu, which comes before j.mu, so the error is
	// noted after unlocking.
	j.mu.Lock()
	if j.state == Queued {
		err = errors.Join(s.store.DeleteArtifacts(m.ID, evicted), s.store.SaveManifest(m))
	}
	j.mu.Unlock()
	s.noteStoreErr(err)
	return nil
}

// removeLocked forgets a job in memory; s.mu must be held. The caller
// owns the matching store deletion (synchronously for a re-run of a
// stale configuration, via reap after unlocking for evictions).
func (s *Scheduler) removeLocked(id string) {
	delete(s.jobs, id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
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
