package sim

// The deterministic scheduler-simulation suite: every test drives the
// fair-share queue (and, at the end, a whole scheduler) through an
// injected fake clock and scripted arrivals, asserting exact dispatch
// orders. No test here synchronizes on time.Sleep — ordering is either
// purely synchronous (queue-level) or event-driven (scheduler-level).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sim/costmodel"
)

// fakeClock is the deterministic time source behind Config.Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// qjob builds a bare queue entry carrier for fairQueue-level tests.
func qjob(id, tenant string, deadline time.Time) *Job {
	return &Job{ID: id, tenant: tenant, deadline: deadline}
}

// popIDs drains n entries synchronously (the queue is pre-filled, so
// pop never blocks) and returns their IDs in dispatch order.
func popIDs(t *testing.T, q *fairQueue, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue reported closed", i)
		}
		ids[i] = j.ID
	}
	return ids
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order\n got %v\nwant %v", got, want)
	}
}

// TestFairShareInterleavesTenants: two tenants flooding with equal
// weights are served strictly alternately, with the submission-order
// tie-break making the order exact — and FIFO within each tenant.
func TestFairShareInterleavesTenants(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	for i := 1; i <= 3; i++ {
		q.push(qjob(fmt.Sprintf("A%d", i), "alice", time.Time{}), true)
	}
	for i := 1; i <= 3; i++ {
		q.push(qjob(fmt.Sprintf("B%d", i), "bob", time.Time{}), true)
	}
	assertOrder(t, popIDs(t, q, 6), []string{"A1", "B1", "A2", "B2", "A3", "B3"})
}

// TestTricklerNotStarvedByFlooders: a tenant that shows up after two
// flooders have been served re-enters at the current virtual-time level
// and is dispatched within one round of the tenant count — it neither
// waits behind the whole backlog nor banks credit for its absence.
func TestTricklerNotStarvedByFlooders(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	for i := 1; i <= 10; i++ {
		q.push(qjob(fmt.Sprintf("A%d", i), "alice", time.Time{}), true)
	}
	for i := 1; i <= 10; i++ {
		q.push(qjob(fmt.Sprintf("B%d", i), "bob", time.Time{}), true)
	}
	assertOrder(t, popIDs(t, q, 4), []string{"A1", "B1", "A2", "B2"})
	// The trickler arrives mid-flood...
	q.push(qjob("C1", "carol", time.Time{}), true)
	// ...and is served within #tenants of arriving, not after 16 more
	// flood entries.
	assertOrder(t, popIDs(t, q, 3), []string{"A3", "B3", "C1"})
}

// TestWeightedShares: weight 3 vs 1 yields a 9:3 dispatch split over
// the first 12 dispatches under contention.
func TestWeightedShares(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, map[string]float64{"alice": 3}, clk.now)
	for i := 1; i <= 12; i++ {
		q.push(qjob(fmt.Sprintf("A%d", i), "alice", time.Time{}), true)
	}
	for i := 1; i <= 12; i++ {
		q.push(qjob(fmt.Sprintf("B%d", i), "bob", time.Time{}), true)
	}
	counts := map[byte]int{}
	for _, id := range popIDs(t, q, 12) {
		counts[id[0]]++
	}
	if counts['A'] != 9 || counts['B'] != 3 {
		t.Fatalf("weighted split A=%d B=%d over 12 dispatches, want 9/3", counts['A'], counts['B'])
	}
}

// TestDeadlineBoost: queued work whose slack runs out (clock advances
// to within its estimated cost of the deadline) jumps the fair-share
// order, earliest deadline first.
func TestDeadlineBoost(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	deadline := clk.now().Add(10 * time.Second)
	for i := 1; i <= 4; i++ {
		q.push(qjob(fmt.Sprintf("A%d", i), "alice", time.Time{}), true)
	}
	for i := 1; i <= 4; i++ {
		q.push(qjob(fmt.Sprintf("B%d", i), "bob", deadline), true)
	}
	// With ample slack the order is plain fair-share.
	assertOrder(t, popIDs(t, q, 2), []string{"A1", "B1"})
	// 9.5s later the remaining deadline jobs have negative slack
	// (0.5s left, 1s estimated cost): they preempt the fair order.
	clk.advance(9500 * time.Millisecond)
	assertOrder(t, popIDs(t, q, 6), []string{"B2", "B3", "B4", "A2", "A3", "A4"})
}

// TestUrgentBurstBoundsStarvation: a tenant flooding all-urgent work
// (deadlines already blown) may bypass the fair order at most
// urgentBurst times in a row — the deadline-less tenant is still served
// at least every urgentBurst+1 dispatches.
func TestUrgentBurstBoundsStarvation(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	blown := clk.now().Add(-time.Second)
	for i := 1; i <= 10; i++ {
		q.push(qjob(fmt.Sprintf("A%d", i), "alice", blown), true)
	}
	for i := 1; i <= 5; i++ {
		q.push(qjob(fmt.Sprintf("B%d", i), "bob", time.Time{}), true)
	}
	got := popIDs(t, q, 15)
	// A1 is itself the fair pick (alice and bob tie at zero service, the
	// lower sequence wins), so it does not count against the burst;
	// A2..A5 are the 4 urgent bypasses, then a fair pick is forced.
	assertOrder(t, got, []string{
		"A1", "A2", "A3", "A4", "A5", "B1",
		"A6", "A7", "A8", "A9", "B2",
		"A10", "B3", "B4", "B5",
	})
	// The structural invariant behind the exact sequence: bob is never
	// gapped by more than urgentBurst+1 dispatches.
	gap := 0
	for _, id := range got {
		if id[0] == 'B' {
			gap = 0
			continue
		}
		if gap++; gap > urgentBurst+1 {
			t.Fatalf("deadline flood starved the plain tenant for %d dispatches: %v", gap, got)
		}
	}
}

// TestFIFOWithinTenant: a tenant's own jobs can never reorder — only
// queue heads are dispatch candidates, so a later urgent submission
// still waits behind its tenant's earlier job.
func TestFIFOWithinTenant(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	q.push(qjob("T1", "alice", time.Time{}), true)
	q.push(qjob("T2", "alice", clk.now().Add(-time.Minute)), true) // long blown deadline
	assertOrder(t, popIDs(t, q, 2), []string{"T1", "T2"})
}

// TestQueueDepthRemoveAndSnapshot covers the bookkeeping edges: the
// depth bound applies only when enforced (recovery bypasses it),
// duplicate IDs are no-ops, remove excises, tighten only ever moves a
// deadline earlier, and snapshot reports per-tenant backlogs.
func TestQueueDepthRemoveAndSnapshot(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(2, nil, clk.now)
	if err := q.push(qjob("J1", "alice", time.Time{}), true); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("J2", "bob", time.Time{}), true); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("J3", "bob", time.Time{}), true); err != ErrQueueFull {
		t.Fatalf("push past depth: %v, want ErrQueueFull", err)
	}
	if err := q.push(qjob("J3", "bob", time.Time{}), false); err != nil {
		t.Fatalf("unenforced push past depth (recovery): %v", err)
	}
	if err := q.push(qjob("J1", "alice", time.Time{}), false); err != nil {
		t.Fatalf("duplicate push: %v", err)
	}
	depth, per := q.snapshot()
	if depth != 3 || per["alice"] != 1 || per["bob"] != 2 {
		t.Fatalf("snapshot %d %v, want 3 {alice:1 bob:2}", depth, per)
	}

	if !q.remove("J2") {
		t.Fatal("remove of a queued job reported false")
	}
	if q.remove("J2") {
		t.Fatal("second remove reported true")
	}
	depth, per = q.snapshot()
	if depth != 2 || per["bob"] != 1 {
		t.Fatalf("snapshot after remove: %d %v", depth, per)
	}

	// tighten: earlier wins, later/zero are ignored.
	d1 := clk.now().Add(time.Hour)
	if !q.tighten("J3", d1) {
		t.Fatal("tighten from no deadline refused")
	}
	if q.tighten("J3", d1.Add(time.Hour)) {
		t.Fatal("tighten accepted a later deadline")
	}
	if !q.tighten("J3", d1.Add(-time.Minute)) {
		t.Fatal("tighten refused an earlier deadline")
	}

	// close drains the backlog, then reports exhaustion.
	q.close()
	if err := q.push(qjob("J4", "alice", time.Time{}), false); err != ErrClosed {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	if got := popIDs(t, q, 2); len(got) != 2 {
		t.Fatalf("drain after close popped %v", got)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a drained closed queue reported ok")
	}
}

// TestEstimatedCostDrivesCharge: tenants are billed their jobs'
// estimated seconds, so a tenant submitting expensive work gets
// proportionally fewer dispatches than one submitting cheap work.
func TestEstimatedCostDrivesCharge(t *testing.T) {
	clk := newFakeClock()
	q := newFairQueue(64, nil, clk.now)
	expensive := &costmodel.Estimate{Seconds: 4, Samples: 5}
	cheap := &costmodel.Estimate{Seconds: 1, Samples: 5}
	for i := 1; i <= 3; i++ {
		j := qjob(fmt.Sprintf("E%d", i), "alice", time.Time{})
		j.est = expensive
		q.push(j, true)
	}
	for i := 1; i <= 8; i++ {
		j := qjob(fmt.Sprintf("C%d", i), "bob", time.Time{})
		j.est = cheap
		q.push(j, true)
	}
	// Each expensive dispatch charges 4s of service; bob gets 4 cheap
	// dispatches per alice one once the vtimes separate.
	assertOrder(t, popIDs(t, q, 10),
		[]string{"E1", "C1", "C2", "C3", "C4", "E2", "C5", "C6", "C7", "C8"})
}

// TestSchedulerFairDispatchOrder is the scheduler-level end of the
// harness: a real Scheduler with one slot, a long blocker occupying it,
// and two tenants' jobs queued behind it must start in fair-share
// order. Synchronization is event-driven — Job.Wait and the store of
// per-job start times — never time.Sleep.
func TestSchedulerFairDispatchOrder(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2, QueueDepth: 16})
	defer s.Close()

	// The blocker pins the only slot while the backlog builds.
	blocker, err := s.Submit(Request{Problem: "sedov", RootN: 32, MaxLevel: Int(1), Steps: 12, Tenant: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	// Its first progress event proves the blocker has been dispatched, so
	// the dispatch's advance of the queue's virtual clock cannot land
	// between alice's first push and bob's (a tenant enters at the clock's
	// value), as TestSpeculationDoesNotPerturbDemandDispatch explains.
	<-blocker.Watch()
	submit := func(tenant string, steps int) *Job {
		t.Helper()
		j, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: steps, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// alice floods three jobs, then bob floods three. Step counts are
	// all distinct — tenant is not job identity, so identical configs
	// would coalesce across tenants.
	queued := []*Job{
		submit("alice", 1), submit("alice", 2), submit("alice", 3),
		submit("bob", 4), submit("bob", 5), submit("bob", 6),
	}
	depth, per := s.QueueStats()
	if per["alice"] != 3 || per["bob"] != 3 {
		// The blocker finished before the backlog built — the machine is
		// too fast for this configuration to contend, so the ordering
		// assertion below would be vacuous. (The blocker itself may
		// still be queued; only the tenant backlog matters.)
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
		if st := j.Status(); st.Tenant == "" {
			t.Fatalf("job %s status lost its tenant", j.ID)
		}
		j.mu.Lock()
		starts[j.ID] = j.started
		j.mu.Unlock()
		order = append(order, j.ID)
	}
	// One slot serializes starts, so StartedAt orders the dispatches.
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

// sortByStart orders job IDs by their recorded start time.
func sortByStart(ids []string, starts map[string]time.Time) {
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && starts[ids[k]].Before(starts[ids[k-1]]); k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
}
