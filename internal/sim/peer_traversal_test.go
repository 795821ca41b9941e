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
// before the store or the replica map is touched — otherwise a later
// local artifact with the real bytes would dedupe onto the poisoned blob,
// and a takeover would serve the row's wrong size.
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
	if st := store.Stats(); st.BlobCount != 0 {
		t.Fatalf("store holds %d blobs after refusals", st.BlobCount)
	}
	if n := replicas(); n != 0 {
		t.Fatalf("a refused artifact reached the replica map: %d replicas", n)
	}
	if code := post("good", 4, good); code != http.StatusNoContent {
		t.Fatalf("matching replica artifact: %d, want 204", code)
	}
	if data, err := store.LoadBlob(good); err != nil || string(data) != "good" {
		t.Fatalf("stored blob %q, %v", data, err)
	}
	if n := replicas(); n != 1 {
		t.Fatalf("%d replicas after an accepted artifact, want 1", n)
	}
}
