package sim_test

// Cost-model durability: estimates learned before a restart must
// survive it, because the model state is persisted in the Store
// alongside the results that trained it — asserted on both stores (see
// forEachStore).

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// TestCostModelSurvivesRestart: a job trains the model under one
// scheduler; a fresh scheduler over the same store estimates from
// that history before running anything — and recovery backfill does
// not double-count the replayed result.
func TestCostModelSurvivesRestart(t *testing.T) {
	forEachStore(t, testCostModelSurvivesRestart)
}

func testCostModelSurvivesRestart(t *testing.T, reopen func() sim.Store) {
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(1), Steps: 3, Workers: 1}

	store1 := reopen()
	s1 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store1})
	j, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := s1.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Samples != 1 || want.Seconds <= 0 {
		t.Fatalf("pre-restart estimate: %+v", want)
	}
	state := s1.CostModelState()
	s1.Close() // closes store1

	store2 := reopen()
	s2 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store2})
	defer s2.Close()
	if n := s2.CostModelSamples(); n != 1 {
		t.Fatalf("restarted scheduler holds %d samples, want 1 (not doubled by recovery backfill)", n)
	}
	got, err := s2.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("estimate drifted across restart: %+v vs %+v", got, want)
	}
	// The serialized state is identical too — recovery backfill of the
	// already-observed job must be a no-op, not a rewrite.
	if string(s2.CostModelState()) != string(state) {
		t.Fatalf("model state drifted across restart:\n%s\nvs\n%s", s2.CostModelState(), state)
	}

	// Peer-merge path: a third model built only from the broadcast
	// state answers identically.
	s3 := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s3.Close()
	if err := s3.MergeCostModel(state); err != nil {
		t.Fatal(err)
	}
	merged, err := s3.Estimate(req)
	if err != nil {
		t.Fatal(err)
	}
	if merged != want {
		t.Fatalf("merged-model estimate %+v, want %+v", merged, want)
	}
}
