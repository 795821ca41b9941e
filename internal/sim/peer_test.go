package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
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
	p.replicas[id] = JobManifest{ID: id, Request: req, Workers: 1, State: Running.String(), SubmittedAt: time.Now()}
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
// checkpoint to its store and keeps only the manifest in memory — a
// takeover resumes through Store.LatestCheckpoint.
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
	m, ok := p.replicas[id]
	p.mu.Unlock()
	if !ok || m.ID != id {
		t.Fatalf("replica manifest %v: %+v", ok, m)
	}
	ck, err := s.store.LatestCheckpoint(id)
	if err != nil || ck == nil || string(ck.Data) != "checkpoint" || ck.Step != 3 {
		t.Fatalf("stored checkpoint %+v, %v", ck, err)
	}
}

// TestSpeculationIsNotReplicated: a speculative job keeps its manifest,
// checkpoints and artifacts local (it has no submitter, and settle never
// tells the standby to drop it), so a one-row sweep emitting a projection
// every step, with a checkpoint every step, sends the standby no
// /peer/replicas request at all. A demand job on the same peer does.
func TestSpeculationIsNotReplicated(t *testing.T) {
	var mu sync.Mutex
	var sent []string
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sent = append(sent, r.Method+" "+r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer standby.Close()
	replicaCalls := func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for _, r := range sent {
			if strings.Contains(r, "/peer/replicas") {
				out = append(out, r)
			}
		}
		return out
	}

	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, Speculate: true, SpeculateSlots: 1, CheckpointEvery: 1})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: a peer does not ping itself
	p, err := NewPeer(s, PeerConfig{Self: self, Peers: []string{self, standby.URL}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	row := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 3,
		Outputs: []analysis.OutputRequest{{Kind: analysis.KindProjection, N: 8, Every: 1}}}
	if _, err := s.PrewarmSweep("one", []Request{row}); err != nil {
		t.Fatal(err)
	}
	waitSpec(t, s, "1 completion", func(st SpeculationStats) bool { return st.Completed == 1 })
	if got := replicaCalls(); len(got) != 0 {
		t.Fatalf("a speculative job sent its standby %d replica requests: %q", len(got), got)
	}

	row.Knobs = map[string]float64{"e0": 7} // a distinct demand job
	j, err := s.Submit(row)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := replicaCalls(); !slices.Contains(got, "POST /peer/replicas/"+j.ID+"/artifacts") {
		t.Fatalf("the demand job replicated no artifact: %q", got)
	}
}

// TestPeerRoutingAndMembershipView pins the single-hop routing and the
// membership view against a scripted neighbour: a submission or a read
// for a job the neighbour owns goes there once, tagged as forwarded, and
// is counted; a forwarded request is always served here, and counted as
// misdirected when the neighbour owns it; an unresolvable submission
// stays here. Once the neighbour misses pingMissesForDead pings,
// /peer/ring lists it dead, /metrics counts one peer alive, and its jobs
// are served here. A self missing from the peer list is refused.
func TestPeerRoutingAndMembershipView(t *testing.T) {
	var (
		healthy   atomic.Bool
		forwarded atomic.Int64
	)
	healthy.Store(true)
	self := "http://127.0.0.1:1" // never dialled: a peer does not call itself
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			if !healthy.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		case strings.HasPrefix(r.URL.Path, "/peer/"): // replication of the jobs run here
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if r.Header.Get(ForwardedHeader) != self {
			t.Errorf("%s %s reached the owner without %s: %s", r.Method, r.URL.Path, ForwardedHeader, self)
		}
		forwarded.Add(1)
		w.WriteHeader(http.StatusTeapot)
	}))
	defer other.Close()

	if _, err := NewPeer(NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1}), PeerConfig{Self: self, Peers: []string{other.URL}}); err == nil {
		t.Error("NewPeer accepted a self missing from the peer list")
	}
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	p, err := NewPeer(s, PeerConfig{Self: self, Peers: []string{self, other.URL}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()

	// Two small requests the neighbour owns (the second for after its
	// death), one this peer owns.
	var theirs, later, ours []byte
	var theirID, ourID string
	for e0 := 1; later == nil || ours == nil; e0++ {
		req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2, Knobs: map[string]float64{"e0": float64(e0)}}
		id, err := s.CanonicalID(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(req)
		switch {
		case p.owner(id) == other.URL && theirs == nil:
			theirs, theirID = body, id
		case p.owner(id) == other.URL && later == nil:
			later = body
		case p.owner(id) == self && ours == nil:
			ours, ourID = body, id
		}
	}
	// IDs held nowhere, the first owned by the neighbour, the second here.
	var unheld [2]string
	for i := 0; unheld[0] == "" || unheld[1] == ""; i++ {
		id := fmt.Sprintf("%016x", i)
		if k := boolInt(p.owner(id) == self); unheld[k] == "" {
			unheld[k] = id
		}
	}
	serve := func(method, path string, body []byte, fwd bool) int {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		if fwd {
			r.Header.Set(ForwardedHeader, other.URL)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code
	}
	for i, step := range []struct {
		method, path string
		body         []byte
		fwd          bool
		code         int
		forwarded    int64 // requests the neighbour has received
		forwards     int64
		proxied      int64
		misdirected  int64
	}{
		{"POST", "/jobs", theirs, false, http.StatusTeapot, 1, 1, 0, 0},
		{"POST", "/jobs", theirs, true, http.StatusAccepted, 1, 1, 0, 1},
		{"POST", "/jobs", ours, false, http.StatusAccepted, 1, 1, 0, 1},
		{"POST", "/jobs", ours, true, http.StatusAccepted, 1, 1, 0, 1}, // coalesces
		{"POST", "/jobs", []byte(`{"problem":`), false, http.StatusBadRequest, 1, 1, 0, 1},
		{"POST", "/jobs", []byte(`{"problem":`), true, http.StatusBadRequest, 1, 1, 0, 1},
		{"GET", "/jobs/" + ourID, nil, false, http.StatusOK, 1, 1, 0, 1},
		{"GET", "/jobs/" + theirID, nil, false, http.StatusOK, 1, 1, 0, 1}, // held here: the forwarded submit ran it
		{"GET", "/jobs/" + unheld[0], nil, false, http.StatusTeapot, 2, 1, 1, 1},
		{"GET", "/jobs/" + unheld[0] + "/events", nil, false, http.StatusTeapot, 3, 1, 2, 1},
		{"GET", "/jobs/" + unheld[0], nil, true, http.StatusNotFound, 3, 1, 2, 2},
		{"GET", "/jobs/" + unheld[1], nil, false, http.StatusNotFound, 3, 1, 2, 2},
	} {
		if code := serve(step.method, step.path, step.body, step.fwd); code != step.code {
			t.Errorf("step %d %s %s (forwarded %v): %d, want %d", i, step.method, step.path, step.fwd, code, step.code)
		}
		got := [4]int64{forwarded.Load(), p.forwards.Load(), p.proxied.Load(), p.misdirected.Load()}
		if want := [4]int64{step.forwarded, step.forwards, step.proxied, step.misdirected}; got != want {
			t.Fatalf("step %d %s %s (forwarded %v): neighbour/forwards/proxied/misdirected %v, want %v", i, step.method, step.path, step.fwd, got, want)
		}
	}

	healthy.Store(false)
	for range pingMissesForDead {
		p.pingPeers()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/peer/ring", nil))
	var ring struct {
		Self  string
		Peers []string
		Dead  []string
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ring); err != nil {
		t.Fatal(err)
	}
	if ring.Self != self || len(ring.Peers) != 2 || len(ring.Dead) != 1 || ring.Dead[0] != other.URL {
		t.Errorf("/peer/ring after the neighbour died: %s", rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range []string{"sim_peers 2\n", "sim_peers_alive 1\n", "sim_peer_forwards_total 1\n", "sim_peer_proxied_reads_total 2\n"} {
		if !bytes.Contains(rec.Body.Bytes(), []byte(line)) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	// The dead neighbour's jobs are this peer's now: nothing leaves.
	if code := serve("POST", "/jobs", later, false); code != http.StatusAccepted || forwarded.Load() != 3 {
		t.Errorf("submission while the neighbour is dead: %d, neighbour received %d requests, want 202 and 3", code, forwarded.Load())
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
