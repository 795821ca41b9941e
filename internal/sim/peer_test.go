package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneMissedPingIsNotADeath scripts a neighbour's /healthz: a single
// failure (or two) followed by a success must change nothing — no
// takeover, no routing change — while pingMissesForDead failures in a
// row cause exactly one takeover, and the next success restores routing.
func TestOneMissedPingIsNotADeath(t *testing.T) {
	var healthy atomic.Bool
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer other.Close()

	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: a peer does not ping itself
	// A cadence that never fires: the test is the ping loop.
	p, err := NewPeer(s, PeerConfig{Self: self, Peers: []string{self, other.URL}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A replica held for a job the neighbour owns.
	id := "job0"
	for i := 1; p.owner(id) != other.URL; i++ {
		id = fmt.Sprintf("job%d", i)
	}
	req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2}
	p.mu.Lock()
	p.replicas[id] = replica{Manifest: JobManifest{ID: id, Request: req, Workers: 1, State: Running.String(), SubmittedAt: time.Now()}, Step: -1}
	p.mu.Unlock()

	for i, step := range []struct {
		healthy   bool
		takeovers int64
		owner     string
	}{
		{false, 0, other.URL}, // one miss...
		{true, 0, other.URL},  // ...then fine: nothing happened
		{false, 0, other.URL},
		{false, 0, other.URL}, // two in a row: still alive
		{true, 0, other.URL},  // the success resets the count
		{false, 0, other.URL},
		{false, 0, other.URL},
		{false, 1, self}, // the third consecutive miss is the death
		{false, 1, self}, // staying dead takes nothing over again
		{true, 1, other.URL},
	} {
		healthy.Store(step.healthy)
		p.pingPeers()
		if got := p.takeovers.Load(); got != step.takeovers {
			t.Fatalf("ping %d (healthy=%v): %d takeovers, want %d", i, step.healthy, got, step.takeovers)
		}
		if got := p.owner(id); got != step.owner {
			t.Fatalf("ping %d (healthy=%v): job routes to %s, want %s", i, step.healthy, got, step.owner)
		}
	}
	if _, ok := s.Get(id); !ok {
		t.Fatal("the taken-over job is not in the local scheduler")
	}
}

// TestReplicaCheckpointHeldOnce: a standby writes a replicated
// checkpoint to its store and keeps the replica record without the
// bytes — a takeover resumes through Store.LatestCheckpoint.
func TestReplicaCheckpointHeldOnce(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: the only peer is itself
	p, err := NewPeer(s, PeerConfig{Self: self, Peers: []string{self}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id := "0123456789abcdef"
	body, err := json.Marshal(replica{Manifest: JobManifest{ID: id}, Step: 3, Data: []byte("checkpoint")})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/peer/replicas/"+id, bytes.NewReader(body)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("replica POST: %d %s", rec.Code, rec.Body)
	}
	p.mu.Lock()
	rep, ok := p.replicas[id]
	p.mu.Unlock()
	if !ok || len(rep.Data) != 0 || rep.Step != 3 {
		t.Fatalf("replica record %v: step %d, %d checkpoint bytes kept", ok, rep.Step, len(rep.Data))
	}
	ck, err := s.store.LatestCheckpoint(id)
	if err != nil || ck == nil || string(ck.Data) != "checkpoint" || ck.Step != 3 {
		t.Fatalf("stored checkpoint %+v, %v", ck, err)
	}
}
