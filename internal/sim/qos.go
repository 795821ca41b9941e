package sim

// The QoS queue: a weighted fair-share priority queue that replaces the
// scheduler's plain FIFO channel. Jobs are segregated into per-tenant
// FIFO lists; a dispatch picks the head of the tenant with the least
// attained service (smallest virtual time), bills that tenant its
// job's estimated cost divided by its weight, and advances a global
// virtual clock so tenants that go idle re-enter at the current service
// level instead of banking credit. Deadline hints ride on top: once a
// queued head's slack (time to deadline minus estimated cost) runs out
// it becomes urgent and is served earliest-deadline-first, but at most
// urgentBurst urgent dispatches may bypass the fair-share pick in a row
// — so a flood of urgent work can never starve a deadline-less tenant.
// All ordering decisions read the injected clock, never time.Now, so
// the deterministic test suite drives them with a fake clock.
//
// Below every tenant sits one strictly-lowest class, the speculative
// backlog (speculate.go plans it). pop hands out a speculation only
// when no demand is queued and a speculative slot is free, cheapest
// estimate first; it is never billed to a vtime or the vclock, never
// shows in the depth or tenant gauges, and a demand push cancels every
// running one — preemption is just "a higher class arrived".

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/sim/costmodel"
)

const (
	// defaultQueueCost is the vtime charge (in seconds) of a dispatch
	// the cost model has no history for.
	defaultQueueCost = 1.0
	// minQueueCharge floors the per-dispatch charge so a tenant whose
	// jobs are estimated at (near) zero seconds still accrues service
	// and cannot monopolize the slots.
	minQueueCharge = 1e-3
	// urgentBurst caps how many consecutive dispatches the deadline
	// boost may take away from the fair-share order before a fair pick
	// is forced — the starvation-freedom bound.
	urgentBurst = 4
)

// queueCost is the vtime charge a dispatch bills the job's tenant: the
// cost model's predicted seconds, or defaultQueueCost for a job without
// a usable estimate.
func (j *Job) queueCost() float64 {
	if j.est != nil && j.est.Samples > 0 && j.est.Seconds > 0 {
		return j.est.Seconds
	}
	return defaultQueueCost
}

// queueEntry is one queued job with its scheduling metadata.
type queueEntry struct {
	job      *Job
	tenant   string
	cost     float64   // estimated seconds; the vtime charge on dispatch
	deadline time.Time // zero when the submission carried no deadline hint
	seq      uint64    // global arrival order; the deterministic tie-break
}

// urgentAt reports whether the entry must start now to make its
// deadline: slack (time remaining minus estimated cost) has run out.
func (e *queueEntry) urgentAt(now time.Time) bool {
	if e.deadline.IsZero() {
		return false
	}
	return e.deadline.Sub(now).Seconds()-e.cost <= 0
}

// tenantQueue is one tenant's FIFO backlog plus its fair-share
// accounting. The struct outlives an empty backlog so a returning
// tenant keeps its attained-service level.
type tenantQueue struct {
	entries []*queueEntry
	vtime   float64 // attained service in weighted seconds
	weight  float64
}

// fairQueue is the scheduler's dispatch queue. Safe for concurrent
// use; pop blocks until an entry or close arrives, and after close it
// keeps draining the backlog before reporting exhaustion (the channel
// semantics the slot goroutines were built around).
type fairQueue struct {
	now     func() time.Time
	depth   int
	weights map[string]float64

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenantQueue
	names     []string // sorted tenant names, for deterministic scans
	byJob     map[string]*queueEntry
	size      int
	seq       uint64
	vclock    float64 // max vtime ever attained; the re-entry level for idle tenants
	urgentRun int     // consecutive dispatches the deadline boost has taken
	closed    bool

	// The speculative class (off while specSlots is 0): the backlog in
	// arrival order (a job's est and parked are the queue's while it is
	// in here), and each popped speculation's cancel func until retire.
	specCtx     context.Context
	specSlots   int
	spec        []*Job
	specRunning map[string]context.CancelFunc

	// waiting counts the slots blocked in pop; claimed holds the demand
	// jobs push already dispatched to idle capacity, for the next pops.
	waiting int
	claimed []*Job
}

// newFairQueue builds a queue dispatching at most depth queued jobs,
// with the given per-tenant weights (unlisted tenants weigh 1) and
// time source.
func newFairQueue(depth int, weights map[string]float64, now func() time.Time) *fairQueue {
	q := &fairQueue{
		now:     now,
		depth:   depth,
		weights: weights,
		tenants: map[string]*tenantQueue{},
		byJob:   map[string]*queueEntry{},

		specRunning: map[string]context.CancelFunc{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job under its tenant; admitLocked is its only caller.
// enforceDepth applies the QueueDepth backpressure bound (submissions
// and peer takeovers); startup recovery bypasses it, because refusing to
// re-admit persisted work would lose it.
func (q *fairQueue) push(j *Job, enforceDepth bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if enforceDepth && q.size >= q.depth {
		return ErrQueueFull
	}
	if _, dup := q.byJob[j.ID]; dup {
		return nil // already queued; the existing entry serves this submission
	}
	tq := q.tenants[j.tenant]
	if tq == nil {
		w := q.weights[j.tenant]
		if !(w > 0) {
			w = 1
		}
		// A new tenant starts at the global service level — no credit
		// for time spent absent.
		tq = &tenantQueue{weight: w, vtime: q.vclock}
		q.tenants[j.tenant] = tq
		i := sort.SearchStrings(q.names, j.tenant)
		q.names = append(q.names, "")
		copy(q.names[i+1:], q.names[i:])
		q.names[i] = j.tenant
	} else if len(tq.entries) == 0 && tq.vtime < q.vclock {
		// Same rule for a returning tenant: idle time banks nothing.
		tq.vtime = q.vclock
	}
	q.seq++
	e := &queueEntry{job: j, tenant: j.tenant, cost: j.queueCost(), deadline: j.deadline, seq: q.seq}
	tq.entries = append(tq.entries, e)
	q.byJob[j.ID] = e
	q.size++
	// A higher class arrived: every running speculation stops at its next
	// root-step boundary. Its slot is idle capacity like one blocked in
	// pop, and while there is any the fair-share pick (and its vtime
	// charge) happens here, at the push — so neither goroutine wake-up
	// latency nor the tail of a speculative step can reorder demand.
	for _, cancel := range q.specRunning {
		cancel()
	}
	if len(q.claimed) < q.waiting+len(q.specRunning) {
		q.claimed = append(q.claimed, q.dispatchLocked())
	}
	q.cond.Signal()
	return nil
}

// pop blocks for the next job to dispatch: demand work by fair share,
// else — only while no demand is queued — the cheapest speculation.
// After close it drains the remaining demand backlog, then reports
// ok=false.
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.claimed) == 0 && q.size == 0 {
		if q.closed {
			return nil, false
		}
		if j := q.popSpeculativeLocked(); j != nil {
			return j, true
		}
		q.waiting++
		q.cond.Wait()
		q.waiting--
	}
	if len(q.claimed) > 0 {
		j := q.claimed[0]
		q.claimed = q.claimed[1:]
		return j, true
	}
	return q.dispatchLocked(), true
}

// dispatchLocked removes and returns the next demand job by fair share
// and deadline urgency, billing its tenant; the backlog must be
// non-empty and q.mu held.
func (q *fairQueue) dispatchLocked() *Job {
	now := q.now()
	// Candidates are tenant heads only, so two requests from the same
	// tenant can never be reordered, deadline or not.
	var fair, urgent *queueEntry
	var fairT, urgentT *tenantQueue
	for _, name := range q.names {
		tq := q.tenants[name]
		if len(tq.entries) == 0 {
			continue
		}
		head := tq.entries[0]
		if fair == nil || tq.vtime < fairT.vtime || (tq.vtime == fairT.vtime && head.seq < fair.seq) {
			fair, fairT = head, tq
		}
		if head.urgentAt(now) {
			if urgent == nil || head.deadline.Before(urgent.deadline) ||
				(head.deadline.Equal(urgent.deadline) && head.seq < urgent.seq) {
				urgent, urgentT = head, tq
			}
		}
	}
	pick, pickT := fair, fairT
	if urgent != nil && urgent != fair && q.urgentRun < urgentBurst {
		pick, pickT = urgent, urgentT
	}
	if pick == fair {
		q.urgentRun = 0 // the fair-share order was respected (or was itself urgent)
	} else {
		q.urgentRun++
	}
	pickT.vtime += math.Max(pick.cost, minQueueCharge) / pickT.weight
	if pickT.vtime > q.vclock {
		q.vclock = pickT.vtime
	}
	pickT.entries = pickT.entries[1:]
	delete(q.byJob, pick.job.ID)
	q.size--
	return pick.job
}

// popSpeculativeLocked dispatches the cheapest unparked speculation
// (arrival order breaks ties) if a speculative slot is free, giving the
// job the context a demand push will cancel. The caller — the slot
// goroutine — owes a retire.
func (q *fairQueue) popSpeculativeLocked() *Job {
	if len(q.specRunning) >= q.specSlots {
		return nil
	}
	pick := -1
	for i, j := range q.spec {
		if !j.parked && (pick < 0 || j.queueCost() < q.spec[pick].queueCost()) {
			pick = i
		}
	}
	if pick < 0 {
		return nil
	}
	j := q.spec[pick]
	q.spec = slices.Delete(q.spec, pick, pick+1)
	j.runCtx, q.specRunning[j.ID] = context.WithCancel(q.specCtx)
	return j
}

// offer enqueues a speculative job (est and parked already set) in the
// lowest class. It is refused once the queue is closed, while the class
// is off, or when the ID is already offered or running. Beyond
// specPendingCap the oldest backlog entry is evicted and returned for
// the caller to discard.
func (q *fairQueue) offer(j *Job) (evicted *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.specSlots == 0 || q.specRunning[j.ID] != nil ||
		slices.ContainsFunc(q.spec, func(x *Job) bool { return x.ID == j.ID }) {
		return nil, false
	}
	if len(q.spec) >= specPendingCap {
		evicted, q.spec = q.spec[0], q.spec[1:]
	}
	q.spec = append(q.spec, j)
	q.cond.Signal()
	return evicted, true
}

// retire ends a popped speculation — the slot is done with it, however
// it ended — freeing its speculative slot for the next waiter.
func (q *fairQueue) retire(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if cancel := q.specRunning[id]; cancel != nil {
		cancel()
		delete(q.specRunning, id)
		q.cond.Signal()
	}
}

// speculative snapshots the speculative backlog in arrival order and
// counts the running speculations.
func (q *fairQueue) speculative() (backlog []*Job, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return slices.Clone(q.spec), len(q.specRunning)
}

// specPlan is the planner's verdict on one speculative job: its fresh
// estimate (the dispatch rank) and whether it must stay parked.
type specPlan struct {
	est    costmodel.Estimate
	parked bool
}

// reprice applies fresh verdicts (keyed by job ID) to the speculative
// backlog after the cost model learned: jobs are re-ranked and a parked
// one whose gate now passes is released.
func (q *fairQueue) reprice(plans map[string]specPlan) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.spec {
		if plan, ok := plans[j.ID]; ok {
			j.est, j.parked = &plan.est, plan.parked
		}
	}
	q.cond.Broadcast()
}

// remove excises a queued job (Cancel of a queued job) so it neither
// occupies depth nor shows in the tenant gauges. Its tenant is not
// charged — the job never ran. Reports whether the job was queued.
func (q *fairQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.byJob[id]
	if e == nil {
		return false
	}
	tq := q.tenants[e.tenant]
	for i, x := range tq.entries {
		if x == e {
			tq.entries = append(tq.entries[:i], tq.entries[i+1:]...)
			break
		}
	}
	delete(q.byJob, id)
	q.size--
	return true
}

// tighten moves a queued job's deadline earlier (a coalesced
// resubmission carrying a tighter hint). A zero or later deadline is
// ignored — coalescing must never relax urgency another submitter
// already established.
func (q *fairQueue) tighten(id string, deadline time.Time) bool {
	if deadline.IsZero() {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.byJob[id]
	if e == nil {
		return false
	}
	if e.deadline.IsZero() || deadline.Before(e.deadline) {
		e.deadline = deadline
		return true
	}
	return false
}

// snapshot reports the current backlog depth and its per-tenant
// breakdown (tenants with an empty backlog are omitted).
func (q *fairQueue) snapshot() (int, map[string]int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	per := map[string]int{}
	for name, tq := range q.tenants {
		if len(tq.entries) > 0 {
			per[name] = len(tq.entries)
		}
	}
	return q.size, per
}

// close stops accepting pushes and offers, drops the speculative
// backlog and wakes every blocked pop; queued demand entries keep
// draining through pop until the backlog is empty.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.spec = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}
