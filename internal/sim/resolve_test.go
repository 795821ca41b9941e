package sim

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/problems"
)

// TestJobIDsPinned pins the job ID (resolved.key) of three requests per
// registered problem: durable stores and peer routing key on these IDs,
// so a refactor of how a problem is configured must leave every one of
// them where it was. The collapse "delta 40" row spells out the default
// and still gets its own ID, distinct from the default request's.
func TestJobIDsPinned(t *testing.T) {
	small := func(p string) Request { return Request{Problem: p, RootN: 8, MaxLevel: Int(1), Steps: 3} }
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Problem: "collapse"}, "5c5b39626e17cc60"},
		{small("collapse"), "ec667ab62580c3a5"},
		{Request{Problem: "collapse", Knobs: map[string]float64{"delta": 40}}, "74c862a64ca15a12"},
		{Request{Problem: "collapse", Knobs: map[string]float64{"delta": 60}}, "c3bc17c734c19864"},
		{Request{Problem: "coolsphere"}, "e9998469202b64da"},
		{small("coolsphere"), "63634f19d55674c0"},
		{Request{Problem: "khi"}, "4372ef21090b8ea1"},
		{small("khi"), "946afe5363ec8b51"},
		{Request{Problem: "pancake"}, "c60ce486d45b9901"},
		{small("pancake"), "cf2b3254959730ca"},
		{Request{Problem: "sedov"}, "6e3c76d694bee8c0"},
		{small("sedov"), "cb318b7149e4c1de"},
		{Request{Problem: "sod"}, "9b16174171e6621e"},
		{small("sod"), "e4abb8590a0b31b2"},
		{Request{Problem: "zoom"}, "62939e6e8878dd7d"},
		{small("zoom"), "20487d33482d5101"},
	}
	pinned := map[string]bool{}
	for _, tc := range cases {
		r, err := resolve(tc.req, 1, 8)
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		if got := r.key(); got != tc.want {
			t.Errorf("%s %v: job ID %s, pinned %s", tc.req.Problem, tc.req.Knobs, got, tc.want)
		}
		pinned[tc.req.Problem] = true
	}
	for _, name := range problems.Names() {
		if !pinned[name] {
			t.Errorf("problem %q has no pinned job ID", name)
		}
	}
}

// FuzzResolveRequest decodes arbitrary JSON into a Request and resolves
// it as POST /jobs does. Resolving never panics; an accepted request
// keeps its job ID across a JSON round trip (a request relayed between
// peers, or stored and reloaded, is the same job); and every knob it
// accepts is one its problem declares.
func FuzzResolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"problem":"sedov"}`,
		`{"problem":"sedov","rootn":8,"maxlevel":0,"steps":3,"knobs":{"e0":-0}}`,
		`{"problem":"collapse","knobs":{"delta":40,"tinit":800}}`,
		`{"problem":"zoom","seed":0,"chemistry":false,"knobs":{"staticlevels":3}}`,
		`{"problem":"sod","solver":"fd","max_time":-0,"workers":2}`,
		`{"problem":"khi","knobs":{"amp":1}}`,
		`{"problem":"pancake","outputs":[{"kind":"projection","n":16,"every":1},{"kind":"slice","coord":-0}]}`,
		`{"problem":"coolsphere","rootn":2048}`,
		`{"problem":"nosuch"}`,
		`{"problem":"sedov","knobs":null,"outputs":[]}`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req Request
		if json.Unmarshal([]byte(body), &req) != nil {
			return
		}
		r, err := resolve(req, 2, 8)
		if err != nil {
			return // rejected at submit: an HTTP 400, not a crash
		}
		spec, ok := problems.Get(r.problem)
		if !ok {
			t.Fatalf("accepted unregistered problem %q", r.problem)
		}
		if err := spec.CheckKnobs(r.opts.Extra); err != nil {
			t.Fatalf("accepted an undeclared knob: %v", err)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var again Request
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("%s does not unmarshal: %v", raw, err)
		}
		r2, err := resolve(again, 2, 8)
		if err != nil {
			t.Fatalf("%s: rejected after a JSON round trip: %v", raw, err)
		}
		if r.key() != r2.key() {
			t.Fatalf("job ID moved across a JSON round trip: %s -> %s\n%s\n%s", r.key(), r2.key(), body, raw)
		}
	})
}

// FuzzSweepManifest posts arbitrary bytes to POST /sweeps on a scheduler
// with speculation off. The handler never panics or answers 5xx; a 202
// triages every row once, in index order, each valid row under the ID
// its merged request resolves to and each invalid one with an error and
// no ID; and with speculation off nothing is accepted or scheduled.
func FuzzSweepManifest(f *testing.F) {
	for _, seed := range []string{
		`{"name":"pair","defaults":{"problem":"sedov","rootn":8,"steps":2},"jobs":[{"maxlevel":0},{"maxlevel":1,"knobs":{"e0":2}}]}`,
		`{"defaults":{"problem":"sedov"},"jobs":[{"knobs":{"eo":1}}]}`,
		`{"jobs":[]}`,
		`{"jobs":[` + strings.Repeat(`{},`, MaxSweepRows) + `{}]}`,
	} {
		f.Add(seed)
	}
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%d for %q: %s", rec.Code, body, rec.Body)
		}
		s.mu.Lock()
		jobs := len(s.jobs)
		s.mu.Unlock()
		if jobs != 0 {
			t.Fatalf("a sweep put %d jobs in the job table", jobs)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var m SweepManifest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("202 for a body the handler's decoding refuses: %v", err)
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("202 body does not decode: %v", err)
		}
		if resp.Rows != len(m.Jobs) || len(resp.Results) != len(m.Jobs) || resp.Accepted != 0 {
			t.Fatalf("rows %d, results %d, accepted %d for %d jobs", resp.Rows, len(resp.Results), resp.Accepted, len(m.Jobs))
		}
		for i, row := range resp.Results {
			if row.Index != i {
				t.Fatalf("result %d carries index %d", i, row.Index)
			}
			if row.Status == "invalid" {
				if row.Error == "" || row.ID != "" {
					t.Fatalf("invalid row %d: error %q, id %q", i, row.Error, row.ID)
				}
				continue
			}
			if id, err := s.CanonicalID(Merge(m.Defaults, m.Jobs[i])); err != nil || row.ID != id {
				t.Fatalf("row %d (%s) has id %q, canonical %q (%v)", i, row.Status, row.ID, id, err)
			}
		}
	})
}
