package sim

// Speculative execution, the planner half. When no demand work is
// queued, free slots pre-warm the result cache with work the planner
// predicts is coming (dataflow diagram: docs/ARCHITECTURE.md):
// explicit sweep manifests announced up front (PrewarmSweep / POST
// /sweeps) and neighbouring knob values inferred from submission
// lineage. Each candidate is an ordinary *Job marked speculative and
// offered to the fair queue's strictly-lowest class (qos.go), so the
// slot goroutines are the only executors and execute/evolve/checkpoint
// the only run path: a preempted speculation checkpoints at its
// root-step boundary like any drained job and re-enters the backlog,
// and a completed one is adopted into the canonical-hash result cache,
// where the real submission that follows is a plain "cache" hit. This
// file holds what is specific to guessing: dedupe, the estimate that
// ranks the backlog, the confidence / budget / max-seconds gates, the
// separate per-tenant spend ledger, and the counters.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/sim/costmodel"
)

const (
	// specPendingCap bounds the speculative backlog; beyond it the
	// oldest candidate is evicted (sweeps announce intent, they must not
	// grow server memory without bound).
	specPendingCap = 2048
	// specCheckpointCap bounds the preemption checkpoints the backlog
	// retains in the store (each is a full hierarchy snapshot); beyond
	// it the longest-waiting candidates go back to a cold start.
	specCheckpointCap = 32
	// specLineageWindow bounds the recent-submission window the lineage
	// planner scans for an adjacent row.
	specLineageWindow = 32
	// DefaultSpeculateMinConfidence is the cost-model confidence a
	// lineage-inferred candidate needs before it may run; explicit sweep
	// rows are exempt (the client declared the work is coming).
	DefaultSpeculateMinConfidence = 0.25
)

// Candidate provenance, reported nowhere but useful for the
// confidence gate: explicit sweep rows may run without model history,
// lineage guesses may not.
const (
	specSourceSweep   = "sweep"
	specSourceLineage = "lineage"
)

// lineageEntry is one recently scheduled demand submission the lineage
// planner may extrapolate a neighbour from.
type lineageEntry struct {
	req Request
	res resolved
}

// speculator is the planner's state: the lineage window, the
// configurations that failed speculatively, and the counters.
//
// Lock order: sp.mu serializes planning (estimate a candidate, apply
// the verdict to the queue) against the cost model learning, so a
// verdict is never older than the backlog's last re-pricing; it may
// take the queue's lock (sp.mu → q.mu), never s.mu or j.mu.
type speculator struct {
	mu     sync.Mutex
	dead   map[string]bool
	recent []lineageEntry

	started   int64
	completed int64
	preempted int64
	resumed   int64
	failed    int64
	hits      int64 // demand submissions answered from a speculative result
	wasted    float64
}

// offerSpeculative plans one speculative run of a resolved request,
// reporting whether it entered the backlog (not when speculation is
// off, the scheduler closed, or the configuration already live, cached,
// planned, running or speculatively failed).
func (s *Scheduler) offerSpeculative(req Request, r resolved, source string) bool {
	if !s.cfg.Speculate {
		return false
	}
	j := s.newJob(r.key(), req, r)
	j.speculative, j.specSource = true, source
	return s.planSpeculative(j)
}

// appraise estimates a speculative job's cost and decides whether it
// must wait for the model: a lineage guess runs only on an estimate
// with history and confidence behind it.
func (s *Scheduler) appraise(j *Job) specPlan {
	est := s.model.Estimate(costQuery(j.res))
	return specPlan{est: est, parked: j.specSource == specSourceLineage &&
		(est.Samples == 0 || est.Confidence < DefaultSpeculateMinConfidence)}
}

// planSpeculative appraises a speculative job (fresh, recovered or just
// preempted) and offers it to the queue's lowest class, reporting
// whether it was accepted; what the backlog cap evicts is discarded.
func (s *Scheduler) planSpeculative(j *Job) bool {
	if _, live := s.Get(j.ID); live {
		return false // already cached, queued or running: nothing to warm
	}
	sp := s.spec
	sp.mu.Lock()
	if sp.dead[j.ID] {
		sp.mu.Unlock()
		return false
	}
	plan := s.appraise(j)
	j.est, j.parked = &plan.est, plan.parked // not yet offered: the job is this goroutine's alone
	evicted, ok := s.fq.offer(j)
	sp.mu.Unlock()
	if evicted != nil {
		s.discardSpeculative(evicted)
	}
	return ok
}

// repriceSpeculative re-appraises the whole speculative backlog after
// the cost model absorbed an observation: cheapest-first follows what
// the model now knows, and a lineage guess it has become confident
// about is released.
func (s *Scheduler) repriceSpeculative() {
	if !s.cfg.Speculate {
		return
	}
	s.spec.mu.Lock()
	defer s.spec.mu.Unlock()
	backlog, _ := s.fq.speculative()
	plans := make(map[string]specPlan, len(backlog))
	for _, j := range backlog {
		plans[j.ID] = s.appraise(j)
	}
	s.fq.reprice(plans)
}

// admitSpeculative applies the gates that need the job table and the
// ledger to a speculation a slot just popped — in the slot goroutine,
// never under the queue's lock. A candidate whose configuration went
// live, whose estimate exceeds -speculate-max-seconds, or whose tenant
// has spent its speculative budget is discarded for good.
func (s *Scheduler) admitSpeculative(j *Job) bool {
	_, live := s.Get(j.ID)
	maxSec, budget := s.cfg.SpeculateMaxSeconds, s.cfg.SpeculateBudgetSeconds
	tooLong := maxSec > 0 && j.est.Samples > 0 && j.est.Seconds > maxSec
	spent := budget > 0 && s.spend.speculativeSeconds(j.tenant) >= budget
	if live || tooLong || spent {
		s.fq.retire(j.ID)
		s.discardSpeculative(j)
		return false
	}
	return true
}

// discardSpeculative forgets a candidate that will not run (again): its
// store records go (a preempted one's interrupted manifest and checkpoint
// must not outlive it) unless the configuration is live on the demand
// path, which then owns them.
func (s *Scheduler) discardSpeculative(j *Job) {
	if _, live := s.Get(j.ID); !live {
		s.noteStoreErr(s.store.DeleteJob(j.ID))
	}
}

// book updates the planner's counters (and the never-retry set) under
// its lock.
func (sp *speculator) book(f func(*speculator)) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	f(sp)
}

// trimSpeculativeCheckpoints enforces specCheckpointCap on any store:
// only the most recently preempted candidates in the backlog keep their
// checkpoint; the rest lose it and will start cold.
func (s *Scheduler) trimSpeculativeCheckpoints() {
	backlog, _ := s.fq.speculative()
	warm := 0
	for i := len(backlog) - 1; i >= 0; i-- {
		j := backlog[i]
		j.mu.Lock()
		drop := j.ckpts > 0 && warm >= specCheckpointCap
		if drop {
			j.ckpts, j.ckptStep = 0, -1
		} else if j.ckpts > 0 {
			warm++
		}
		j.mu.Unlock()
		if drop {
			s.noteStoreErr(s.store.DeleteCheckpoints(j.ID))
		}
	}
}

// onDemandScheduled observes a fresh demand scheduling (its push has
// already preempted the running speculations) and extrapolates a
// lineage candidate: when the submission differs from a recent one in
// exactly one knob, the next row of that implied sweep is planned. A
// candidate planned for the submitted configuration itself is left to
// admitSpeculative (it is live now); the demand run warm-starts from
// the checkpoint it may have left.
func (s *Scheduler) onDemandScheduled(req Request, r resolved) {
	sp := s.spec
	if !s.cfg.Speculate {
		return
	}
	var neighbour *Request
	sp.mu.Lock()
	for i := len(sp.recent) - 1; i >= 0 && neighbour == nil; i-- {
		neighbour = knobNeighbour(sp.recent[i], req, r)
	}
	sp.recent = append(sp.recent, lineageEntry{req: req, res: r})
	if len(sp.recent) > specLineageWindow {
		sp.recent = sp.recent[1:]
	}
	sp.mu.Unlock()
	if neighbour == nil {
		return
	}
	nr, err := resolve(*neighbour, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
	if err != nil {
		return // the extrapolated knob value resolves to nothing runnable
	}
	s.offerSpeculative(*neighbour, nr, specSourceLineage)
}

// knobNeighbour extrapolates the next row of an implied sweep: when cur
// differs from prev in exactly one problem knob (same problem, bounds,
// grid, outputs), the returned request continues the arithmetic
// progression prev → cur → next in that knob. Deadline hints do not
// carry over — speculation has no deadline.
func knobNeighbour(prev lineageEntry, curReq Request, cur resolved) *Request {
	p, c := prev.res, cur
	if p.problem != c.problem || p.steps != c.steps || p.maxTime != c.maxTime {
		return nil
	}
	po, co := p.opts, c.opts
	if po.RootN != co.RootN || po.MaxLevel != co.MaxLevel || po.Chemistry != co.Chemistry ||
		po.Seed != co.Seed || po.Solver != co.Solver {
		return nil
	}
	if len(po.Extra) != len(co.Extra) {
		return nil
	}
	key, delta := "", 0.0
	for k, cv := range co.Extra {
		pv, ok := po.Extra[k]
		if !ok {
			return nil // different knob sets: not the same sweep
		}
		if pv != cv {
			if key != "" {
				return nil // two knobs moved: not a single-axis sweep
			}
			key, delta = k, cv-pv
		}
	}
	if key == "" {
		return nil
	}
	next := curReq
	next.DeadlineSeconds = 0
	knobs := make(map[string]float64, len(curReq.Knobs)+1)
	for k, v := range curReq.Knobs {
		knobs[k] = v
	}
	knobs[key] = co.Extra[key] + delta
	next.Knobs = knobs
	return &next
}

// SpeculationStats snapshots the speculative-execution counters for
// /metrics and /healthz.
type SpeculationStats struct {
	// Enabled reports whether the scheduler speculates at all.
	Enabled bool `json:"enabled"`
	// Slots is how many speculations may run at once; BudgetSeconds the
	// per-tenant speculative wall-second cap (0 = none).
	Slots         int     `json:"slots"`
	BudgetSeconds float64 `json:"budget_seconds"`
	// Pending and Inflight are the queue's speculative backlog and the
	// running speculations.
	Pending  int `json:"pending"`
	Inflight int `json:"inflight"`
	// Started counts speculative executions begun; Completed those that
	// ran to a cached result; Preempted those cancelled for demand
	// arrivals; Resumed those that continued from a preemption
	// checkpoint; Failed those that errored.
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Preempted int64 `json:"preempted"`
	Resumed   int64 `json:"resumed"`
	Failed    int64 `json:"failed"`
	// Hits counts demand submissions answered from a speculatively
	// computed result — the number that justifies all the others.
	Hits int64 `json:"hits"`
	// WastedSeconds totals speculative wall seconds that produced
	// neither a result nor a resumable checkpoint.
	WastedSeconds float64 `json:"wasted_seconds"`
}

// SpeculationStats reports the scheduler's speculative-execution
// counters.
func (s *Scheduler) SpeculationStats() SpeculationStats {
	sp := s.spec
	backlog, running := s.fq.speculative()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return SpeculationStats{
		Enabled:       s.cfg.Speculate,
		Slots:         s.cfg.SpeculateSlots,
		BudgetSeconds: s.cfg.SpeculateBudgetSeconds,
		Pending:       len(backlog),
		Inflight:      running,
		Started:       sp.started,
		Completed:     sp.completed,
		Preempted:     sp.preempted,
		Resumed:       sp.resumed,
		Failed:        sp.failed,
		Hits:          sp.hits,
		WastedSeconds: sp.wasted,
	}
}

// spendLedger accumulates observed wall seconds per tenant, demand and
// speculative classes separately. Demand seconds say how -tenant-weights
// should be derived (see GET /tenants); speculative seconds enforce
// -speculate-budget-seconds and never touch the fair-share vclock.
type spendLedger struct {
	mu   sync.Mutex
	rows map[string]*tenantSpendRow
}

type tenantSpendRow struct {
	demandSeconds float64
	specSeconds   float64
	demandJobs    int64
	specJobs      int64
}

// newSpendLedger builds an empty ledger.
func newSpendLedger() *spendLedger {
	return &spendLedger{rows: map[string]*tenantSpendRow{}}
}

// charge bills one completed (or cut-short) execution's wall seconds to
// a tenant. Zero-second executions still count a job — the fake-clock
// suite must see its runs in the ledger.
func (l *spendLedger) charge(tenant string, speculative bool, seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		seconds = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	row := l.rows[tenant]
	if row == nil {
		row = &tenantSpendRow{}
		l.rows[tenant] = row
	}
	if speculative {
		row.specSeconds += seconds
		row.specJobs++
	} else {
		row.demandSeconds += seconds
		row.demandJobs++
	}
}

// speculativeSeconds reports a tenant's accumulated speculative spend.
func (l *spendLedger) speculativeSeconds(tenant string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if row := l.rows[tenant]; row != nil {
		return row.specSeconds
	}
	return 0
}

// TenantSpend is one tenant's historical spend row (GET /tenants): the
// observed demand and speculative wall seconds, job counts, the
// configured fair-share weight, and the current queue depth. Divide a
// tenant's DemandSeconds by the fleet total to derive a proportional
// -tenant-weights entry.
type TenantSpend struct {
	Tenant             string  `json:"tenant"`
	Weight             float64 `json:"weight"`
	DemandSeconds      float64 `json:"demand_seconds"`
	SpeculativeSeconds float64 `json:"speculative_seconds"`
	DemandJobs         int64   `json:"demand_jobs"`
	SpeculativeJobs    int64   `json:"speculative_jobs"`
	Queued             int     `json:"queued"`
}

// TenantSpends reports every tenant's historical spend, sorted by
// tenant name.
func (s *Scheduler) TenantSpends() []TenantSpend {
	queued := map[string]int{}
	if _, per := s.QueueStats(); per != nil {
		queued = per
	}
	s.spend.mu.Lock()
	out := make([]TenantSpend, 0, len(s.spend.rows))
	for name, row := range s.spend.rows {
		w := s.cfg.TenantWeights[name]
		if !(w > 0) {
			w = 1
		}
		out = append(out, TenantSpend{
			Tenant:             name,
			Weight:             w,
			DemandSeconds:      row.demandSeconds,
			SpeculativeSeconds: row.specSeconds,
			DemandJobs:         row.demandJobs,
			SpeculativeJobs:    row.specJobs,
			Queued:             queued[name],
		})
	}
	s.spend.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}

// MaxSweepRows caps a single sweep manifest (POST /sweeps): announcing
// intent must stay a small bounded write, like a submission.
const MaxSweepRows = 1024

// SweepRowStatus is one row of a sweep manifest's triage: its canonical
// job ID, how the planner classified it (accepted for speculation,
// already cached, already live, skipped, or invalid), and the cost
// model's estimate — returned even when speculation is off, so clients
// can order their submissions shortest-predicted-first.
type SweepRowStatus struct {
	Index    int                 `json:"index"`
	ID       string              `json:"id,omitempty"`
	Status   string              `json:"status"`
	Error    string              `json:"error,omitempty"`
	Estimate *costmodel.Estimate `json:"estimate,omitempty"`
}

// SweepResponse is the POST /sweeps payload: the per-row triage plus
// how many rows entered the speculation backlog.
type SweepResponse struct {
	Name      string           `json:"name,omitempty"`
	Rows      int              `json:"rows"`
	Accepted  int              `json:"accepted"`
	Speculate bool             `json:"speculate"`
	Results   []SweepRowStatus `json:"results"`
}

// PrewarmSweep announces a sweep's full resolved row list up front so
// idle slots can pre-warm the result cache ahead of the submissions.
// Nothing is scheduled on the demand path: every row is triaged
// (resolve + cache/live lookup + cost estimate) and viable ones enter
// the speculation backlog when speculation is enabled. Rows that fail
// to resolve are reported invalid rather than failing the sweep.
func (s *Scheduler) PrewarmSweep(name string, rows []Request) (SweepResponse, error) {
	if len(rows) == 0 {
		return SweepResponse{}, fmt.Errorf("sim: sweep %q has no rows", name)
	}
	if len(rows) > MaxSweepRows {
		return SweepResponse{}, fmt.Errorf("sim: sweep %q has %d rows, cap %d", name, len(rows), MaxSweepRows)
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return SweepResponse{}, ErrClosed
	}
	resp := SweepResponse{Name: name, Rows: len(rows), Speculate: s.cfg.Speculate}
	for i, req := range rows {
		row := SweepRowStatus{Index: i}
		r, err := resolve(req, s.cfg.slotWorkers(), s.cfg.TotalWorkers)
		if err != nil {
			row.Status = "invalid"
			row.Error = err.Error()
			resp.Results = append(resp.Results, row)
			continue
		}
		row.ID = r.key()
		est := s.model.Estimate(costQuery(r))
		row.Estimate = &est
		if j, ok := s.Get(row.ID); ok {
			switch st := j.State(); {
			case st == Done:
				row.Status = "cached"
			case !st.terminal():
				row.Status = "live"
			default:
				row.Status = "skipped" // a failed/cancelled record: not worth guessing at
			}
		} else if s.offerSpeculative(req, r, specSourceSweep) {
			row.Status = "accepted"
			resp.Accepted++
		} else {
			row.Status = "skipped"
		}
		resp.Results = append(resp.Results, row)
	}
	return resp, nil
}
