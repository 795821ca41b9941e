package sim_test

// How a speculation's run ends, pinned through the exported surface: a
// failed speculation is counted once and never offered again, and one
// caught by Close is neither a cancelled submission nor demand spend.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// waitSpeculation polls the speculation counters until cond holds.
func waitSpeculation(t *testing.T, s *sim.Scheduler, what string, cond func(sim.SpeculationStats) bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond(s.SpeculationStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("speculation never reached %s: %+v", what, s.SpeculationStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedSpeculationIsNeverRetried: a speculation whose run fails
// (here its first checkpoint cannot be written) counts as a speculative
// failure, touches no submitter counter, and its configuration is
// skipped when the same sweep is announced again.
func TestFailedSpeculationIsNeverRetried(t *testing.T) {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, CheckpointEvery: 1,
		SpeculateSlots: 1,
		Store:          faultStore{Store: sim.NewMemStore(), fail: map[string]error{"SaveCheckpoint": fmt.Errorf("injected SaveCheckpoint failure")}}})
	defer s.Close()
	rows := []sim.Request{{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 4, Workers: 1}}
	if resp, err := s.PrewarmSweep("doomed", rows); err != nil || resp.Accepted != 1 {
		t.Fatalf("PrewarmSweep = %+v, %v; want the row accepted", resp, err)
	}
	waitSpeculation(t, s, "a failure", func(st sim.SpeculationStats) bool { return st.Failed == 1 })

	resp, err := s.PrewarmSweep("doomed", rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Status; got != "skipped" || resp.Accepted != 0 {
		t.Fatalf("re-announced failed row: status %q, accepted %d; want skipped, 0", got, resp.Accepted)
	}
	if st := s.Stats(); st.Executed != 0 || st.Failed != 0 {
		t.Fatalf("submitter counters moved: executed %d, failed %d", st.Executed, st.Failed)
	}
	if st := s.SpeculationStats(); st.Failed != 1 || st.Started != 1 {
		t.Fatalf("speculation counters %+v, want one started and one failed", st)
	}
}

// TestSpeculationCaughtByCloseIsNotCancelled: Close stopping a running
// speculation is no submitter's cancellation and no preemption, and the
// seconds it ran bill only the tenant's speculative column.
func TestSpeculationCaughtByCloseIsNotCancelled(t *testing.T) {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, SpeculateSlots: 1})
	rows := []sim.Request{{Problem: "sedov", RootN: 16, MaxLevel: sim.Int(1), Steps: 400, Workers: 1}}
	if resp, err := s.PrewarmSweep("long", rows); err != nil || resp.Accepted != 1 {
		t.Fatalf("PrewarmSweep = %+v, %v; want the row accepted", resp, err)
	}
	waitSpeculation(t, s, "a start", func(st sim.SpeculationStats) bool { return st.Started == 1 })
	s.Close()

	if st := s.Stats(); st.Cancelled != 0 || st.Executed != 0 {
		t.Fatalf("submitter counters moved: cancelled %d, executed %d", st.Cancelled, st.Executed)
	}
	if st := s.SpeculationStats(); st.Preempted != 0 || st.Completed != 0 {
		t.Fatalf("speculation counters %+v, want no preemption and no completion", st)
	}
	spends := s.TenantSpends()
	if len(spends) != 1 {
		t.Fatalf("spend rows %+v, want one", spends)
	}
	if sp := spends[0]; sp.DemandSeconds != 0 || sp.DemandJobs != 0 || sp.SpeculativeJobs != 1 || !(sp.SpeculativeSeconds > 0) {
		t.Fatalf("spend row %+v, want one speculative job and its seconds only", sp)
	}
}
