package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// TestReplicaIDsCannotLeaveTheDataRoot: the mux decodes %2F inside one
// path segment, so a /peer/replicas/{id} request can carry "../" in its
// id. Every replica route answers 400 for an id that is not a job ID,
// and nothing beside the data root is touched.
func TestReplicaIDsCannotLeaveTheDataRoot(t *testing.T) {
	parent := t.TempDir()
	if err := os.Mkdir(filepath.Join(parent, "victim"), 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := diskstore.New(filepath.Join(parent, "data"))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: the only peer is itself
	p, err := sim.NewPeer(s, sim.PeerConfig{Self: self, Peers: []string{self}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()

	// jobs/x/../../../<name> is <name> beside the data root.
	escape := func(name string) (id, path string) {
		return "x/../../../" + name, "/peer/replicas/x%2F..%2F..%2F..%2F" + name
	}
	payload := []byte("payload")
	sum := sha256.Sum256(payload)
	idPut, putPath := escape("put")
	_, artPath := escape("art")
	_, delPath := escape("victim")
	for _, tc := range []struct{ method, path, body string }{
		{"DELETE", delPath, ""},
		{"POST", putPath, fmt.Sprintf(`{"manifest":{"id":%q},"step":0,"data":"cGF5bG9hZA=="}`, idPut)},
		{"POST", artPath + "/artifacts", fmt.Sprintf(`{"meta":{"name":"a.pgm","kind":"projection","content_hash":%q},"data":"cGF5bG9hZA=="}`,
			hex.EncodeToString(sum[:]))},
		{"DELETE", artPath + "/artifacts", `["a.pgm"]`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", tc.method, tc.path, rec.Code)
		}
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"data", "victim"}) {
		t.Fatalf("beside the data root: %v, want [data victim]", names)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/peer/ring", nil))
	var ring struct{ Replicas int }
	if err := json.Unmarshal(rec.Body.Bytes(), &ring); err != nil || ring.Replicas != 0 {
		t.Fatalf("a refused replica reached the replica map: %s", rec.Body)
	}
}

// TestReplicaArtifactMustMatchItsHash: a standby stores replicated
// artifact bytes only when they are the bytes the row names. A payload
// whose content hash or size disagrees with its row is refused with 400
// before the store is touched — otherwise a later local artifact with
// the real bytes would dedupe onto the poisoned blob, and a takeover
// would serve the row's wrong size. An accepted row goes to the store
// alone: with no manifest there is nothing to take over, so the replica
// map stays empty.
func TestReplicaArtifactMustMatchItsHash(t *testing.T) {
	store, err := diskstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: the only peer is itself
	p, err := sim.NewPeer(s, sim.PeerConfig{Self: self, Peers: []string{self}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	post := func(data string, size int, hash string) int {
		body, err := json.Marshal(map[string]any{
			"meta": sim.ArtifactMeta{Name: "a.pgm", Kind: "projection", Size: size, Hash: hash},
			"data": []byte(data),
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/peer/replicas/0123456789abcdef/artifacts", strings.NewReader(string(body))))
		return rec.Code
	}
	replicas := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/peer/ring", nil))
		var ring struct{ Replicas int }
		if err := json.Unmarshal(rec.Body.Bytes(), &ring); err != nil {
			t.Fatal(err)
		}
		return ring.Replicas
	}
	good := sim.HashBytes([]byte("good"))
	for _, tc := range []struct {
		data string
		size int
		hash string
	}{
		{"evil", 99, good}, // neither hash nor size
		{"evil", 4, good},  // the size alone is right
		{"good", 99, good}, // the hash alone is right
	} {
		if code := post(tc.data, tc.size, tc.hash); code != http.StatusBadRequest {
			t.Errorf("data %q, size %d: %d, want 400", tc.data, tc.size, code)
		}
	}
	if data, err := store.LoadBlob(good); err == nil {
		t.Fatalf("a refused payload reached the store: %q", data)
	}
	if st := store.Stats(); st.BlobCount != 0 || st.ArtifactCount != 0 {
		t.Fatalf("store holds %d blobs, %d rows after refusals", st.BlobCount, st.ArtifactCount)
	}
	if code := post("good", 4, good); code != http.StatusNoContent {
		t.Fatalf("matching replica artifact: %d, want 204", code)
	}
	if data, err := store.LoadBlob(good); err != nil || string(data) != "good" {
		t.Fatalf("stored blob %q, %v", data, err)
	}
	if st := store.Stats(); st.ArtifactCount != 1 {
		t.Fatalf("store holds %d rows after an accepted artifact, want 1", st.ArtifactCount)
	}
	if n := replicas(); n != 0 {
		t.Fatalf("%d replicas after an artifact without a manifest, want 0", n)
	}
}

// TestReplicaTakeoverReadsRowsFromStore: a standby keeps a replicated
// job's artifact rows in its store alone. Sent a manifest, rows a, b and
// c, a replaced b and a dropped a, then losing its neighbour to three
// missed pings, it takes the job over with exactly the rows [b', c] its
// store holds, on both stores.
func TestReplicaTakeoverReadsRowsFromStore(t *testing.T) {
	forEachStore(t, testReplicaTakeoverReadsRowsFromStore)
}

func testReplicaTakeoverReadsRowsFromStore(t *testing.T, reopen func() sim.Store) {
	store := reopen()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: a peer does not ping itself
	p, err := sim.NewPeer(s, sim.PeerConfig{Self: self, Peers: []string{self, dead.URL}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	id := ""
	for i := 0; id == "" || p.Owner(id) != dead.URL; i++ {
		id = fmt.Sprintf("%016x", i)
	}
	send := func(method, suffix string, body any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/peer/replicas/"+id+suffix, strings.NewReader(string(buf))))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("%s %s: %d %s", method, suffix, rec.Code, rec.Body)
		}
	}
	put := func(name, data string) {
		meta := sim.ArtifactMeta{Name: name, Kind: "projection", Size: len(data), Hash: sim.HashBytes([]byte(data))}
		send("POST", "/artifacts", map[string]any{"meta": meta, "data": []byte(data)})
	}
	req := sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2}
	send("POST", "", map[string]any{"step": -1, "manifest": sim.JobManifest{
		ID: id, Request: req, Workers: 1, State: sim.Running.String(), SubmittedAt: time.Now()}})
	put("a.pgm", "first a")
	put("b.pgm", "first b")
	put("c.pgm", "only c")
	put("b.pgm", "second b")
	send("DELETE", "/artifacts", []string{"a.pgm"})

	for range 3 {
		if _, ok := s.Get(id); ok {
			t.Fatal("taken over before the third missed ping")
		}
		p.PingPeers()
	}
	j, ok := s.Get(id)
	if !ok {
		t.Fatal("the replicated job was not taken over")
	}
	want := []string{"b.pgm", sim.HashBytes([]byte("second b")), "c.pgm", sim.HashBytes([]byte("only c"))}
	var got, stored []string
	for _, row := range j.Artifacts().Index().Artifacts {
		got = append(got, row.Name, row.Hash)
	}
	rows, err := store.Artifacts(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		stored = append(stored, row.Name, row.Hash)
	}
	if !slices.Equal(got, want) || !slices.Equal(stored, want) {
		t.Fatalf("taken-over rows %v, store rows %v, want %v", got, stored, want)
	}
	if _, data, err := j.Artifacts().Open("b.pgm"); err != nil || string(data) != "second b" {
		t.Fatalf("b.pgm reads %q, %v", data, err)
	}
}

// TestReplicaArtifactNameTheStoreRefuses: a hash-correct replicated
// artifact whose name the disk store cannot hold is the sender's error —
// 400, like a hash mismatch — and leaves the store untouched and
// healthy.
func TestReplicaArtifactNameTheStoreRefuses(t *testing.T) {
	store, err := diskstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: the only peer is itself
	p, err := sim.NewPeer(s, sim.PeerConfig{Self: self, Peers: []string{self}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	good := []byte("good")
	for _, name := range []string{"../x.pgm", "a/b.pgm", ".hidden.pgm", "index.json", ""} {
		body, err := json.Marshal(map[string]any{
			"meta": sim.ArtifactMeta{Name: name, Kind: "projection", Size: len(good), Hash: sim.HashBytes(good)},
			"data": good,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/peer/replicas/0123456789abcdef/artifacts", strings.NewReader(string(body))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("artifact named %q: %d %s, want 400", name, rec.Code, rec.Body)
		}
	}
	if st := store.Stats(); st.BlobCount != 0 || st.ArtifactCount != 0 {
		t.Errorf("store holds %d blobs, %d rows after refusals", st.BlobCount, st.ArtifactCount)
	}
	if _, _, err := s.RecoverState(); err != nil {
		t.Errorf("a sender's bad name marked the store degraded: %v", err)
	}
}
