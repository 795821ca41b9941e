package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, req Request) SubmitResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs: %s", resp.Status)
	}
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getResult(t *testing.T, url, id string) (*Result, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/result", url, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %s", resp.Status)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, true
}

func waitResult(t *testing.T, url, id string) *Result {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if res, done := getResult(t, url, id); done {
			return res
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// TestHTTPEndToEnd is the service acceptance test: a job submitted over
// the HTTP API returns exactly the hash of the same problem run via
// core.New directly, and a duplicate POST is answered from cache without
// a second execution.
func TestHTTPEndToEnd(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 2, TotalWorkers: 4})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 2, Workers: 2}
	sub := postJob(t, srv.URL, req)
	if sub.Disposition != "scheduled" {
		t.Fatalf("first POST disposition %q", sub.Disposition)
	}
	res := waitResult(t, srv.URL, sub.ID)
	if want := directHash(t, req, s.SlotWorkers()); res.Hash != want {
		t.Fatalf("HTTP job hash %s, direct core.New run %s", res.Hash, want)
	}
	if res.Steps != 2 || res.Metrics.StepsTaken != 2 || res.Metrics.CellUpdates == 0 {
		t.Fatalf("bad result payload: %+v", res)
	}
	if len(res.Metrics.OperatorSeconds) == 0 {
		t.Fatalf("result lacks per-operator metrics: %+v", res.Metrics)
	}

	// A duplicate submission is a cache hit: same ID, no new execution.
	dup := postJob(t, srv.URL, req)
	if dup.Disposition != "cache" || dup.ID != sub.ID {
		t.Fatalf("duplicate POST: disposition %q id %s (want cache, %s)", dup.Disposition, dup.ID, sub.ID)
	}
	if st := s.Stats(); st.Executed != 1 {
		t.Fatalf("%d executions after duplicate POST, want 1", st.Executed)
	}
}

// TestHTTPConcurrentDuplicates races identical submissions through the
// HTTP layer: one execution, every response converging on one job ID.
func TestHTTPConcurrentDuplicates(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 2, TotalWorkers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := Request{Problem: "khi", RootN: 8, MaxLevel: Int(1), Steps: 2, Workers: 1}
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postJob(t, srv.URL, req).ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	waitResult(t, srv.URL, ids[0])
	if st := s.Stats(); st.Executed != 1 {
		t.Fatalf("%d executions for %d racing posts", st.Executed, n)
	}
}

func TestHTTPStatusListEventsAndAux(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sub := postJob(t, srv.URL, Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2})

	// The events stream yields one NDJSON line per step plus the final
	// status line.
	resp, err := http.Get(srv.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	var lastLine string
	for sc.Scan() {
		lines++
		lastLine = sc.Text()
	}
	resp.Body.Close()
	if lines != 3 {
		t.Fatalf("events stream had %d lines, want 2 steps + final status", lines)
	}
	if !strings.Contains(lastLine, `"state"`) || !strings.Contains(lastLine, `"done"`) {
		t.Fatalf("final events line is not the terminal status: %s", lastLine)
	}

	for _, ep := range []string{"/jobs", "/jobs/" + sub.ID, "/problems", "/healthz"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", ep, resp.Status)
		}
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", ep, err)
		}
		resp.Body.Close()
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"sim_jobs_submitted_total 1", "sim_jobs_executed_total 1", "sim_slots 1"} {
		if !strings.Contains(buf.String(), metric) {
			t.Fatalf("metrics missing %q:\n%s", metric, buf.String())
		}
	}

	// Unknown job and bad payloads are clean client errors.
	if resp, _ := http.Get(srv.URL + "/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", resp.Status)
	}
	bad, _ := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"problem":"nosuch"}`))
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad problem: %s", bad.Status)
	}
	bad2, _ := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if bad2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s", bad2.Status)
	}
}

// TestHTTPListFilterAndPagination: GET /jobs navigates large job tables
// via ?status=, ?limit= and ?offset=, with the pre-pagination match
// count in X-Total-Count.
func TestHTTPListFilterAndPagination(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Three distinct completed jobs plus one cancelled record.
	var ids []string
	for _, e0 := range []float64{5, 10, 15} {
		sub := postJob(t, srv.URL, Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2,
			Knobs: map[string]float64{"e0": e0}})
		ids = append(ids, sub.ID)
		waitResult(t, srv.URL, sub.ID)
	}
	cancelled := postJob(t, srv.URL, Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 10000})
	j, _ := s.Get(cancelled.ID)
	<-j.Watch()
	s.Cancel(cancelled.ID)
	<-j.Done()

	list := func(query string, wantTotal int) []Status {
		t.Helper()
		resp, err := http.Get(srv.URL + "/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s: %s", query, resp.Status)
		}
		if got := resp.Header.Get("X-Total-Count"); got != fmt.Sprint(wantTotal) {
			t.Fatalf("GET /jobs%s: X-Total-Count %s, want %d", query, got, wantTotal)
		}
		var out []Status
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := list("", 4); len(got) != 4 {
		t.Fatalf("unfiltered list has %d rows", len(got))
	}
	done := list("?status=done", 3)
	if len(done) != 3 {
		t.Fatalf("done filter returned %d rows", len(done))
	}
	for i, st := range done {
		if st.State != "done" || st.ID != ids[i] {
			t.Fatalf("done row %d: %+v (submit order must be preserved)", i, st)
		}
	}
	if got := list("?status=cancelled", 1); len(got) != 1 || got[0].ID != cancelled.ID {
		t.Fatalf("cancelled filter: %+v", got)
	}
	page := list("?status=done&limit=1&offset=1", 3)
	if len(page) != 1 || page[0].ID != ids[1] {
		t.Fatalf("limit/offset page wrong: %+v", page)
	}
	if got := list("?offset=99", 4); len(got) != 0 {
		t.Fatalf("over-offset should be empty, got %d rows", len(got))
	}
	for _, bad := range []string{"?status=bogus", "?limit=-1", "?offset=x"} {
		resp, err := http.Get(srv.URL + "/jobs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /jobs%s: %s, want 400", bad, resp.Status)
		}
	}
}

// TestHTTPListPaginationStable: GET /jobs pages on a documented stable
// sort key — (submit time, id) — so an ?offset= walk over a scheduler
// whose jobs are changing state never skips or duplicates a job id, and
// ties on submit time break deterministically by id (the raw retention
// order, which moves resubmitted configurations to the back and makes
// no promise about equal timestamps, is NOT the pagination order).
func TestHTTPListPaginationStable(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, CacheSize: 64})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 9
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		sub := postJob(t, srv.URL, Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2,
			Tenant: "pager", Knobs: map[string]float64{"e0": float64(i + 1)}})
		want[sub.ID] = true
	}
	// Force submit-time ties: with one shared timestamp the only order
	// left is the id tiebreak, which the raw retention order does not
	// provide.
	tied := time.Now()
	for _, j := range s.Jobs() {
		j.mu.Lock()
		j.submitted = tied
		j.mu.Unlock()
	}

	// Page through the table repeatedly while the single slot churns the
	// jobs queued→running→done underneath the walk.
	for walk := 0; walk < 25; walk++ {
		seen := map[string]bool{}
		var order []string
		for offset := 0; ; offset += 3 {
			resp, err := http.Get(fmt.Sprintf("%s/jobs?limit=3&offset=%d", srv.URL, offset))
			if err != nil {
				t.Fatal(err)
			}
			// Every page carries the queue-pressure headers, and queued
			// rows are accounted to their tenant.
			qd, err := strconv.Atoi(resp.Header.Get("X-Queue-Depth"))
			if err != nil || qd < 0 {
				t.Fatalf("walk %d: X-Queue-Depth %q: %v", walk, resp.Header.Get("X-Queue-Depth"), err)
			}
			if qd > 0 && !strings.Contains(resp.Header.Get("X-Tenant-Queued"), "pager=") {
				t.Fatalf("walk %d: %d queued but X-Tenant-Queued = %q",
					walk, qd, resp.Header.Get("X-Tenant-Queued"))
			}
			var page []Status
			if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if len(page) == 0 {
				break
			}
			for _, st := range page {
				if seen[st.ID] {
					t.Fatalf("walk %d: job %s appeared twice", walk, st.ID)
				}
				if st.Tenant != "pager" {
					t.Fatalf("walk %d: job %s lists tenant %q, want pager", walk, st.ID, st.Tenant)
				}
				seen[st.ID] = true
				order = append(order, st.ID)
			}
		}
		if len(seen) != n {
			t.Fatalf("walk %d: saw %d of %d jobs (a page skipped rows)", walk, len(seen), n)
		}
		for id := range seen {
			if !want[id] {
				t.Fatalf("walk %d: unknown job %s", walk, id)
			}
		}
		if !sort.StringsAreSorted(order) {
			t.Fatalf("walk %d: tied submit times not ordered by id: %v", walk, order)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sub := postJob(t, srv.URL, Request{Problem: "sedov", RootN: 8, MaxLevel: Int(1), Steps: 10000})
	j, _ := s.Get(sub.ID)
	<-j.Watch() // running for sure
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	<-j.Done()
	if st := j.State(); st != Cancelled {
		t.Fatalf("state %v after HTTP cancel", st)
	}
}

// TestOversizedBodiesAnswer413: a submission or sweep one byte over the
// 1 MiB bound is refused as too large, not as malformed.
func TestOversizedBodiesAnswer413(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := bytes.Repeat([]byte(" "), maxRequestBody+1)
	for _, path := range []string{"/jobs", "/sweeps"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: %s, want 413", path, len(body), resp.Status)
		}
	}
}

// TestReadBodyLimit pins the body readers every bounded handler (peer
// replicas and model state included) goes through: at the limit the
// body reads whole, one byte over is 413, and a malformed body that
// fits is 400.
func TestReadBodyLimit(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"a":"0123456"}`, http.StatusOK},  // 15 bytes
		{`{"a":"01234567"}`, http.StatusOK}, // exactly the limit
		{`{"a":"012345678"}`, http.StatusRequestEntityTooLarge},
		{`{"a":`, http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
		var v map[string]string
		if decodeBody(w, r, limit, "test body", false, &v) {
			w.WriteHeader(http.StatusOK)
		}
		if w.Code != c.code {
			t.Errorf("body %q (%d bytes): %d, want %d", c.body, len(c.body), w.Code, c.code)
		}
	}
	for n, code := range map[int]int{limit: http.StatusOK, limit + 1: http.StatusRequestEntityTooLarge} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat("x", n)))
		if body, ok := readBody(w, r, limit, "test body"); ok != (code == http.StatusOK) || (ok && len(body) != n) || (!ok && w.Code != code) {
			t.Errorf("readBody of %d bytes: %d bytes, ok=%v, code %d; want code %d", n, len(body), ok, w.Code, code)
		}
	}
}
