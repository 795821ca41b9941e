package sim_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// ckptLog passes every call through to its Store and logs each
// SaveCheckpoint: the step asked for, and whether the store then holds
// that step as the job's latest.
type ckptLog struct {
	sim.Store
	mu            sync.Mutex
	asked, landed []int
}

func (c *ckptLog) SaveCheckpoint(id string, step int, data []byte) error {
	err := c.Store.SaveCheckpoint(id, step, data)
	ck, _ := c.Store.LatestCheckpoint(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.asked = append(c.asked, step)
	if err == nil && ck != nil && ck.Step == step {
		c.landed = append(c.landed, step)
	}
	return err
}

func (c *ckptLog) steps() (asked, landed []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.asked), slices.Clone(c.landed)
}

// runLogged runs req to completion on a fresh scheduler over a ckptLog of
// store, checkpointing every second root step, and checks the result
// against a direct run.
func runLogged(t *testing.T, store sim.Store, req sim.Request, before func(id string)) (*sim.Job, *ckptLog) {
	t.Helper()
	log := &ckptLog{Store: store}
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: log, CheckpointEvery: 2})
	defer s.Close()
	id, err := s.CanonicalID(req)
	if err != nil {
		t.Fatal(err)
	}
	before(id)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.DirectHash(t, req, 1); res.Hash != want {
		t.Fatalf("hash %s, direct run %s", res.Hash, want)
	}
	return j, log
}

// TestLastStepWritesNoCheckpoint: the cadence skips the job's last root
// step — the result supersedes a checkpoint there at once — and every
// checkpoint the status counts is one the store holds.
func TestLastStepWritesNoCheckpoint(t *testing.T) {
	forEachStore(t, func(t *testing.T, reopen func() sim.Store) {
		for _, steps := range []int{6, 5} {
			req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: steps, Workers: 1}
			j, log := runLogged(t, reopen(), req, func(string) {})
			asked, landed := log.steps()
			if want := []int{1, 3}; !slices.Equal(asked, want) || !slices.Equal(landed, want) {
				t.Errorf("%d steps every 2: checkpoints asked %v, landed %v; want %v", steps, asked, landed, want)
			}
			if got := j.Status().Checkpoints; got != len(landed) {
				t.Errorf("%d steps every 2: status counts %d checkpoints, %d landed", steps, got, len(landed))
			}
		}
	})
}

// TestUnreadableCheckpointIsDropped: a checkpoint the job cannot decode
// is rebuilt from the request, and dropped, so the rebuilt run's cadence
// checkpoints below its step land instead of being refused by the store.
func TestUnreadableCheckpointIsDropped(t *testing.T) {
	forEachStore(t, func(t *testing.T, reopen func() sim.Store) {
		store := reopen()
		req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 10, Workers: 1}
		j, log := runLogged(t, store, req, func(id string) {
			if err := store.SaveCheckpoint(id, 7, []byte("not a snapshot")); err != nil {
				t.Fatal(err)
			}
		})
		if st := j.Status(); st.ResumedFrom != "" {
			t.Fatalf("resumed from %q, want a rebuild", st.ResumedFrom)
		}
		asked, landed := log.steps()
		if want := []int{1, 3, 5, 7}; !slices.Equal(asked, want) || !slices.Equal(landed, want) {
			t.Errorf("checkpoints asked %v, landed %v; want %v", asked, landed, want)
		}
		if got := j.Status().Checkpoints; got != len(landed) {
			t.Errorf("status counts %d checkpoints, %d landed", got, len(landed))
		}
	})
}
