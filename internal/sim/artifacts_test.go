package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/problems"
)

func art(name string, size int) analysis.Artifact {
	return analysis.Artifact{Name: name, Kind: analysis.KindSlice, Data: bytes.Repeat([]byte{1}, size)}
}

func TestArtifactStoreBounds(t *testing.T) {
	s := newArtifactStore(100, 3, nil)
	s.Put(art("a", 40))
	s.Put(art("b", 40))
	if n, b := s.Count(); n != 2 || b != 80 {
		t.Fatalf("count %d bytes %d", n, b)
	}
	// Byte budget: storing c evicts a.
	s.Put(art("c", 40))
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest artifact not evicted on byte overflow")
	}
	if _, ok := s.Get("b"); !ok {
		t.Fatal("newer artifact evicted too")
	}
	// Count budget: a third small artifact is fine, a fourth evicts.
	s.Put(art("d", 1))
	s.Put(art("e", 1))
	idx := s.Index()
	if idx.Count != 3 || idx.Dropped != 2 {
		t.Fatalf("index %+v", idx)
	}
	// An artifact larger than the whole budget is refused outright.
	s.Put(art("huge", 1000))
	if _, ok := s.Get("huge"); ok {
		t.Fatal("oversized artifact stored")
	}
	if s.Index().Dropped != 3 {
		t.Fatalf("dropped %d, want 3", s.Index().Dropped)
	}
}

func TestArtifactStoreWatchReplayAndClose(t *testing.T) {
	s := newArtifactStore(1000, 10, nil)
	s.Put(art("a", 1))
	ch := s.Watch()
	if m := <-ch; m.Name != "a" {
		t.Fatalf("replay %+v", m)
	}
	s.Put(art("b", 1))
	if m := <-ch; m.Name != "b" {
		t.Fatalf("live update %+v", m)
	}
	s.close()
	if _, open := <-ch; open {
		t.Fatal("channel not closed after store close")
	}
	// Watch after close replays then closes immediately.
	ch2 := s.Watch()
	names := []string{}
	for m := range ch2 {
		names = append(names, m.Name)
	}
	if len(names) != 2 {
		t.Fatalf("terminal replay %v", names)
	}
}

// offlineArtifact computes the same product the service evaluates, from
// a direct core.New run — the independent ground truth of the
// acceptance test.
func offlineArtifact(t *testing.T, r analysis.OutputRequest, step int, evalWorkers int) analysis.Artifact {
	t.Helper()
	sm, err := core.New("sedov", func(o *problems.Opts) {
		o.RootN, o.MaxLevel, o.Workers = 8, 1, 1
	})
	if err != nil {
		t.Fatal(err)
	}
	sm.RunSteps(step + 1)
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	a, err := n.Evaluate(sm.H, "sedov", step, evalWorkers)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestHTTPArtifactsEndToEnd is the derived-output acceptance test: a job
// submitted with output requests over real HTTP serves artifacts that
// are bitwise identical to the same products computed offline from a
// direct core.New run. The grid kernels and the analysis reductions are
// both worker-invariant, so the same body pinned to 4 workers is the same
// job: a cache hit serving the same bytes, not a second execution.
func TestHTTPArtifactsEndToEnd(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 2, TotalWorkers: 8})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	outputs := []analysis.OutputRequest{
		{Kind: analysis.KindProjection, Field: "rho", Axis: 2, N: 16, NSamp: 16, Every: 1},
		{Kind: analysis.KindSlice, Field: "pressure", N: 16, Format: "json"},
	}
	// Ground truth, computed offline (physics at 1 worker; evaluating
	// the projection at 3 workers double-checks Evaluate's own
	// worker-invariance on the way).
	wantProj := offlineArtifact(t, outputs[0], 1, 3)
	wantSlice := offlineArtifact(t, outputs[1], 1, 1)

	var firstID string
	for i, workers := range []int{1, 4} {
		req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2, Workers: workers, Outputs: outputs}
		sub := postJob(t, srv.URL, req)
		if want := []string{"scheduled", "cache"}[i]; sub.Disposition != want {
			t.Fatalf("workers=%d: disposition %q, want %q", workers, sub.Disposition, want)
		}
		if i == 0 {
			firstID = sub.ID
		} else if sub.ID != firstID {
			t.Fatalf("workers=%d: job ID %s, want the workers=1 job %s", workers, sub.ID, firstID)
		}
		res := waitResult(t, srv.URL, sub.ID)
		// The projection fires after both steps; the slice only at the
		// end of the run.
		if res.Artifacts != 3 {
			t.Fatalf("workers=%d: result reports %d artifacts, want 3", workers, res.Artifacts)
		}
		if res.Metrics.ArtifactCount != 3 || res.Metrics.ArtifactBytes == 0 {
			t.Fatalf("workers=%d: artifact metrics %+v", workers, res.Metrics)
		}

		var idx ArtifactIndex
		getJSON(t, srv.URL+"/jobs/"+sub.ID+"/artifacts", &idx)
		if idx.Count != 3 || len(idx.Artifacts) != 3 {
			t.Fatalf("workers=%d: artifact index %+v", workers, idx)
		}
		for got, want := range map[string]analysis.Artifact{
			"00_" + wantProj.Name:  wantProj,
			"01_" + wantSlice.Name: wantSlice,
		} {
			body, contentType := getBody(t, srv.URL+"/jobs/"+sub.ID+"/artifacts/"+got)
			if contentType != want.ContentType {
				t.Fatalf("workers=%d: %s content type %q, want %q", workers, got, contentType, want.ContentType)
			}
			if !bytes.Equal(body, want.Data) {
				t.Fatalf("workers=%d: artifact %s is not bitwise identical to the offline product (%d vs %d bytes)",
					workers, got, len(body), len(want.Data))
			}
		}

		// The artifact events stream replays every product and closes.
		resp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/artifacts/events")
		if err != nil {
			t.Fatal(err)
		}
		events, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if n := bytes.Count(events, []byte("\n")); n != 3 {
			t.Fatalf("workers=%d: artifact events stream had %d lines:\n%s", workers, n, events)
		}
	}

	if st := s.Stats(); st.Executed != 1 {
		t.Fatalf("%d executions, want 1 (the worker budget is not identity)", st.Executed)
	}
}

// TestSubmitRejectsBadOutputs pins submit-time validation: a bad output
// request is an HTTP 400, not a dead job.
func TestSubmitRejectsBadOutputs(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"problem":"sedov","outputs":[{"kind":"hologram"}]}`,
		`{"problem":"sedov","outputs":[{"kind":"checkpoint","every":2}]}`,
		`{"problem":"sedov","outputs":[{"kind":"slice","field":"entropy"}]}`,
		`{"problem":"sedov","outputs":[{"kind":"slice","n":4096}]}`,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: %s, want 400", body, resp.Status)
		}
	}
	// Outputs are part of the job identity: same physics, different
	// products, two jobs.
	a, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 1, Workers: 1,
		Outputs: []analysis.OutputRequest{{Kind: analysis.KindProfile}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("jobs with different output lists share an identity")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getBody(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("Content-Type")
}
