package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/costmodel"
	"repro/internal/sim/diskstore"
)

// replicaRoutes are the peer-to-peer routes FuzzReplicaRoutes drives,
// picked by the fuzzed route byte; %s is the escaped replica ID.
var replicaRoutes = []struct{ method, path string }{
	{http.MethodPost, "/peer/replicas/%s"},
	{http.MethodDelete, "/peer/replicas/%s"},
	{http.MethodPost, "/peer/replicas/%s/artifacts"},
	{http.MethodDelete, "/peer/replicas/%s/artifacts"},
	{http.MethodPost, "/peer/model"},
}

// escapeSegment percent-encodes every byte of s but ASCII letters and
// digits, so any fuzzed ID stays one path segment the mux does not clean
// or redirect.
func escapeSegment(s string) string {
	var b strings.Builder
	for i := range len(s) {
		c := s[i]
		if '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// wireReplica and wireArtifact are the JSON bodies an owner sends to
// POST /peer/replicas/{id} and POST /peer/replicas/{id}/artifacts.
type wireReplica struct {
	Manifest sim.JobManifest `json:"manifest"`
	Step     int             `json:"step"`
	Data     []byte          `json:"data,omitempty"`
}

type wireArtifact struct {
	Meta sim.ArtifactMeta `json:"meta"`
	Data []byte           `json:"data"`
}

// FuzzReplicaRoutes sends arbitrary IDs and bodies to the routes one peer
// accepts from another — the four /peer/replicas/{id}… routes and POST
// /peer/model — on a single-peer Peer that already holds one replicated
// job, once over the in-memory store and once over a disk store (the
// one that checks artifact names). No input panics; every answer is
// 204, 400 or 413; and a refusal changes neither the store's gauges nor
// the replica count GET /peer/ring reports.
func FuzzReplicaRoutes(f *testing.F) {
	const held = "0123456789abcdef"
	good := []byte("good")
	meta := func(name string) sim.ArtifactMeta {
		return sim.ArtifactMeta{Name: name, Kind: "projection", Size: len(good), Hash: sim.HashBytes(good)}
	}
	m := sim.JobManifest{ID: held, Request: sim.Request{Problem: "sedov", RootN: 8, MaxLevel: sim.Int(0), Steps: 2},
		Workers: 1, State: sim.Running.String(), SubmittedAt: time.Unix(1700000000, 0).UTC()}
	manifestBody, _ := json.Marshal(wireReplica{Manifest: m, Step: -1})
	checkpointBody, _ := json.Marshal(wireReplica{Manifest: sim.JobManifest{ID: held}, Step: 3, Data: []byte("checkpoint")})
	artifactBody, _ := json.Marshal(wireArtifact{Meta: meta("a.pgm"), Data: good})
	evilBody, _ := json.Marshal(wireArtifact{Meta: meta("a.pgm"), Data: []byte("evil")})
	climbBody, _ := json.Marshal(wireArtifact{Meta: meta("../x.pgm"), Data: good})
	indexBody, _ := json.Marshal(wireArtifact{Meta: meta("index.json"), Data: good})
	model := costmodel.New()
	model.Observe(costmodel.Sample{JobID: held, Problem: "sedov", Work: 8 * 8 * 8 * 2, Seconds: 0.05, Cells: 1024,
		Features: map[string]float64{"rootn": 8, "maxlevel": 0, "workers": 1}})
	for _, seed := range []struct {
		route uint8
		id    string
		body  []byte
	}{
		{0, held, manifestBody},
		{0, held, checkpointBody},
		{0, held, []byte(`{"manifest":{"id":"0123456789abcdef"},"step":-1,"artifacts":[{"name":"a.pgm"}]}`)},
		{0, "fedcba9876543210", checkpointBody},
		{0, "x/../../../put", []byte(`{"manifest":{"id":"x/../../../put"},"step":0,"data":"cGF5bG9hZA=="}`)},
		{1, held, nil},
		{1, "/", nil},
		{2, held, artifactBody},
		{2, held, evilBody},
		{2, held, climbBody},
		{2, held, indexBody},
		{3, held, []byte(`["a.pgm"]`)},
		{3, held, []byte(`["a.pgm"`)},
		{4, "", model.Encode()},
		{4, "", []byte(`{"version":99}`)},
	} {
		f.Add(seed.route, seed.id, seed.body)
	}
	f.Fuzz(func(t *testing.T, route uint8, id string, body []byte) {
		disk, err := diskstore.New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, store := range []sim.Store{sim.NewMemStore(), disk} {
			fuzzReplicaRoute(t, store, held, [][]byte{manifestBody, checkpointBody, artifactBody}, route, id, body)
		}
	})
}

// fuzzReplicaRoute is one FuzzReplicaRoutes input against one store:
// seed the held replica from its manifest, checkpoint and artifact
// bodies, send the input, check the answer.
func fuzzReplicaRoute(t *testing.T, store sim.Store, held string, seed [][]byte, route uint8, id string, body []byte) {
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store})
	defer s.Close()
	self := "http://127.0.0.1:1" // never dialled: the only peer is itself
	p, err := sim.NewPeer(s, sim.PeerConfig{Self: self, Peers: []string{self}, PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	replicas := func() int {
		var ring struct{ Replicas int }
		if err := json.Unmarshal(serve(http.MethodGet, "/peer/ring", nil).Body.Bytes(), &ring); err != nil {
			t.Fatal(err)
		}
		return ring.Replicas
	}
	// One replicated job with a checkpoint and a row, for the input to
	// leave alone or change.
	for i, suffix := range []string{"", "", "/artifacts"} {
		if rec := serve(http.MethodPost, "/peer/replicas/"+held+suffix, seed[i]); rec.Code != http.StatusNoContent {
			t.Fatalf("seeding the held replica: %d %s", rec.Code, rec.Body)
		}
	}

	r := replicaRoutes[int(route)%len(replicaRoutes)]
	path := r.path
	if strings.Contains(path, "%s") {
		if id == "" || id == "/" {
			// No replica route: the mux reads an empty segment, or one
			// that unescapes to "/", as the end of the path.
			return
		}
		path = fmt.Sprintf(path, escapeSegment(id))
	}
	stats, before := store.Stats(), replicas()
	rec := serve(r.method, path, body)
	switch rec.Code {
	case http.StatusNoContent:
		return
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("%T: %s %s: %d %s", store, r.method, path, rec.Code, rec.Body)
	}
	if got := store.Stats(); got != stats {
		t.Fatalf("%T: %s %s refused with %d but changed the store:\n%+v\nwas\n%+v", store, r.method, path, rec.Code, got, stats)
	}
	if got := replicas(); got != before {
		t.Fatalf("%T: %s %s refused with %d but changed the replica count %d → %d", store, r.method, path, rec.Code, before, got)
	}
}
