package sim

// What a slot does with a popped job: run it (evolve), classify the
// outcome (execute), checkpoint and persist along the way.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

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
		if j.finish(Done, res, nil) && (!j.speculative || s.admit(j, admitRetained, func(*Stats) {}) == nil) {
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
	if p := s.replicaPeer(j); p != nil {
		p.dropReplica(j.ID)
	}
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
	// The checkpoint cadence is a snapshot request in a plan of its own:
	// its artifacts route to the store's checkpoint files, not the
	// artifact index, and it has no Finish guarantee (a completed job
	// deletes its checkpoints instead).
	var ckptPlan *analysis.OutputPlan
	if s.cfg.CheckpointEvery > 0 || s.cfg.CheckpointTime > 0 {
		ckptPlan, err = analysis.NewOutputPlan([]analysis.OutputRequest{{
			Kind:      analysis.KindSnapshot,
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
	emit := func(a analysis.Artifact) error {
		evicted, hash, stored := j.artifacts.Put(a)
		if stored {
			// Persist only what the in-memory store retained: an
			// artifact refused by the byte budget must not linger
			// unreachable on disk.
			s.noteStoreErr(s.store.SaveArtifact(j.ID, a, hash))
			if p := s.replicaPeer(j); p != nil {
				p.replicateArtifact(j.ID, a, hash)
			}
		}
		s.noteStoreErr(s.store.DeleteArtifacts(j.ID, evicted))
		if p := s.replicaPeer(j); p != nil && len(evicted) > 0 {
			p.dropArtifacts(j.ID, evicted)
		}
		return nil
	}
	// Each root step is published, then its products and its checkpoint
	// are evaluated; an error from either stops the physics at this
	// boundary instead of burning the remaining step budget on a job
	// already doomed to fail. The job's last step writes no checkpoint:
	// the result supersedes it at once, and a kill before then resumes
	// from the previous one to the same bits.
	taken, err := sm.Run(ctx, core.RunOpts{
		MaxSteps:  j.res.steps - startStep,
		MaxTime:   j.res.maxTime,
		StartStep: startStep,
		Observe: func(info core.StepInfo) error {
			j.publish(info)
			t0 := time.Now()
			err := plan.Step(sm.H, j.res.problem, info.Step, j.res.opts.Workers, emit)
			analysisWall += time.Since(t0)
			if err != nil || ckptPlan == nil || info.Step == j.res.steps-1 {
				return err
			}
			return ckptPlan.Step(sm.H, j.res.problem, info.Step, j.res.opts.Workers,
				func(a analysis.Artifact) error { return s.checkpoint(j, info.Step, a.Data) })
		},
	})
	steps := startStep + taken
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
// fresh build — a lost resume costs recomputation, never the job — and
// is dropped, since the store would otherwise refuse every cadence
// checkpoint of the rebuilt run below its step.
func (s *Scheduler) buildOrResume(j *Job) (*core.Simulation, int, error) {
	ck, err := s.store.LatestCheckpoint(j.ID)
	s.noteStoreErr(err)
	if ck != nil && ck.Step < j.res.steps {
		h, problem, err := snapshot.Read(bytes.NewReader(ck.Data))
		if err == nil {
			// Workers is a runtime knob of the saving process; this
			// process's resolved budget is authoritative here, and the
			// bits do not depend on it.
			h.Cfg.Workers = j.res.opts.Workers
			j.mu.Lock()
			j.resumedFrom = fmt.Sprintf("checkpoint step %d", ck.Step)
			j.mu.Unlock()
			return core.Resume(h, problem), ck.Step + 1, nil
		}
		s.noteStoreErr(fmt.Errorf("sim: job %s checkpoint unreadable, rebuilding: %w", j.ID, err))
		s.noteStoreErr(s.store.DeleteCheckpoints(j.ID))
	}
	sm, err := core.New(j.res.problem, func(o *problems.Opts) { *o = j.res.opts })
	if err != nil {
		return nil, 0, err
	}
	return sm, 0, nil
}

// checkpoint persists one restart point (every start of the job resumes
// from the store's newest checkpoint), then records its provenance: the
// job's counters, the manifest, and the replica push carrying both.
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
	if p := s.replicaPeer(j); p != nil {
		p.replicate(j.manifestOf(Running.String()), step, data)
	}
	return nil
}
