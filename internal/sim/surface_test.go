package sim

// The name inventory: every /metrics series name and /healthz key an
// operator's dashboards may already reference is pinned in
// testdata/surface_names.txt. Refactors may add names; removing or
// renaming one fails here. Regenerate (after an INTENTIONAL addition)
// with `go test ./internal/sim -run TestSurfaceNames -update-surface`.

import (
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite testdata/surface_names.txt from the live handler")

const surfaceNamesFile = "testdata/surface_names.txt"

// scrapeSurface adds the names one scrape of a live handler shows:
// "metric <series>" per /metrics line (labels and value stripped) and
// "healthz <key>" per /healthz field.
func scrapeSurface(t *testing.T, url string, into map[string]bool) {
	t.Helper()
	for _, line := range strings.Split(getMetrics(t, url), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		into["metric "+name] = true
	}
	for key := range getHealthz(t, url) {
		into["healthz "+key] = true
	}
}

// TestSurfaceNames scrapes a speculating scheduler twice — once with a
// tenant backlog behind a running job (the per-tenant queue gauge only
// exists then), once after an announced sweep row was pre-warmed and
// hit — and requires every pinned name to still be served.
func TestSurfaceNames(t *testing.T) {
	s := NewScheduler(Config{MaxConcurrent: 1, TotalWorkers: 1, Speculate: true, SpeculateSlots: 1})
	defer s.Close()
	srv := newTestServer(t, s)
	live := map[string]bool{}

	blocker, err := s.Submit(Request{Problem: "sedov", RootN: 32, MaxLevel: Int(1), Steps: 12, Tenant: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	waiting, err := s.Submit(Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 1, Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	scrapeSurface(t, srv.URL, live)
	s.Cancel(waiting.ID)
	s.Cancel(blocker.ID)
	<-blocker.Done()

	row := Request{Problem: "sedov", RootN: 8, MaxLevel: Int(0), Steps: 2, Knobs: map[string]float64{"e0": 7}}
	if _, err := s.PrewarmSweep("inventory", []Request{row}); err != nil {
		t.Fatal(err)
	}
	waitSpec(t, s, "sweep row pre-warmed", func(st SpeculationStats) bool { return st.Completed >= 1 })
	if _, disp, err := s.SubmitWithDisposition(row); err != nil || disp != CacheHit {
		t.Fatalf("pre-warmed row: disposition %q, err %v", disp, err)
	}
	scrapeSurface(t, srv.URL, live)

	if *updateSurface {
		names := make([]string, 0, len(live))
		for n := range live {
			names = append(names, n)
		}
		sort.Strings(names)
		if err := os.WriteFile(surfaceNamesFile, []byte(strings.Join(names, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := os.ReadFile(surfaceNamesFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Split(strings.TrimSpace(string(pinned)), "\n") {
		if !live[name] {
			t.Errorf("served surface lost %q", name)
		}
	}
}
