package sim_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

// TestHotTierNeedsNoRefcount: the hot tier is a cache and the store
// alone decides how long a blob lives. Two jobs emit a byte-identical
// payload; the first job leaves the result cache and the shared payload
// leaves the hot tier. The second job's copy still reads back verified
// from the store, the evicted job's answers 404, and the tier never
// holds more than its budget.
func TestHotTierNeedsNoRefcount(t *testing.T) {
	store, err := diskstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hotBytes = 6000 // about one projection
	s := sim.NewScheduler(sim.Config{MaxConcurrent: 1, TotalWorkers: 1, Store: store, HotBytes: hotBytes, CacheSize: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	scrapes := 0
	checkHot := func() {
		t.Helper()
		scrapes++
		if hot := metricValue(t, srv.URL, "sim_hot_tier_bytes"); hot > hotBytes {
			t.Fatalf("scrape %d: hot tier holds %d bytes over its %d-byte budget", scrapes, hot, hotBytes)
		}
		if reads, misses := metricValue(t, srv.URL, "sim_artifact_disk_reads_total"), metricValue(t, srv.URL, "sim_artifact_cache_misses_total"); reads != misses {
			t.Fatalf("scrape %d: %d disk reads for %d misses", scrapes, reads, misses)
		}
	}
	run := func(steps, e0 string) string {
		t.Helper()
		sub := postJob(t, srv.URL, `{"problem":"sedov","rootn":8,"maxlevel":1,"steps":`+steps+`,"workers":1,
			"knobs":{"e0":`+e0+`},"outputs":[{"kind":"projection","n":64,"nsamp":8,"axis":2,"every":1}]}`)
		j, ok := s.Get(sub.ID)
		if !ok {
			t.Fatalf("job %s not found after submit", sub.ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s failed: %v", sub.ID, err)
		}
		checkHot()
		return sub.ID
	}
	index := func(id string) sim.ArtifactIndex {
		t.Helper()
		var idx sim.ArtifactIndex
		getJSON(t, srv.URL+"/jobs/"+id+"/artifacts", &idx)
		if len(idx.Artifacts) == 0 {
			t.Fatalf("job %s has no artifacts", id)
		}
		return idx
	}

	a := run("1", "1")
	shared := index(a).Artifacts[0]
	want := readAll(t, get(t, srv.URL+"/jobs/"+a+"/artifacts/"+shared.Name, nil))
	checkHot()
	b := run("2", "1")
	idx := index(b)
	if m := idx.Artifacts[0]; m.Name != shared.Name || m.Hash != shared.Hash {
		t.Fatalf("the two jobs' first products differ: %+v vs %+v", m, shared)
	}
	if idx.Bytes <= hotBytes {
		t.Fatalf("%d artifact bytes fit the %d-byte hot tier; the test needs pressure", idx.Bytes, hotBytes)
	}
	run("2", "2") // a third result evicts the first job; its products evict the shared payload
	for deadline := time.Now().Add(30 * time.Second); s.Stats().CacheEvictions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first job never left the result cache")
		}
	}

	resp := get(t, srv.URL+"/jobs/"+a+"/artifacts/"+shared.Name, nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job's artifact: %s, want 404", resp.Status)
	}
	reads0 := metricValue(t, srv.URL, "sim_artifact_disk_reads_total")
	resp = get(t, srv.URL+"/jobs/"+b+"/artifacts/"+shared.Name, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || string(got) != string(want) || sim.HashBytes(got) != shared.Hash {
		t.Fatalf("surviving job's shared artifact: %s, %d bytes, hash match %v", resp.Status, len(got), sim.HashBytes(got) == shared.Hash)
	}
	if reads := metricValue(t, srv.URL, "sim_artifact_disk_reads_total"); reads != reads0+1 {
		t.Fatalf("the shared payload was still resident: disk reads %d -> %d", reads0, reads)
	}
	checkHot()
}
