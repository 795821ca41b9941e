// Package storetest is the sim.Store conformance suite: one set of
// behavioral tests every Store implementation must pass, run
// identically against the in-memory default and the disk store so the
// two can never drift apart on WAL, artifact, checkpoint or cost-model
// semantics. Every store must round-trip everything Recover needs.
package storetest

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// Run exercises one Store implementation against the interface
// contract. open must return a fresh, empty store on each call (a new
// temp directory for disk stores); the suite closes what it opens.
func Run(t *testing.T, open func(t *testing.T) sim.Store) {
	t.Run("ManifestWALAndRecover", func(t *testing.T) { testManifestRecover(t, open) })
	t.Run("EqualSubmitTimesInIDOrder", func(t *testing.T) { testEqualSubmitTimes(t, open) })
	t.Run("ResultRoundTrip", func(t *testing.T) { testResult(t, open) })
	t.Run("ArtifactsAndBlobs", func(t *testing.T) { testArtifacts(t, open) })
	t.Run("Checkpoints", func(t *testing.T) { testCheckpoints(t, open) })
	t.Run("DeleteJob", func(t *testing.T) { testDeleteJob(t, open) })
	t.Run("ManifestlessSwept", func(t *testing.T) { testManifestlessSwept(t, open) })
	t.Run("CostModel", func(t *testing.T) { testCostModel(t, open) })
	t.Run("EmptyStore", func(t *testing.T) { testEmpty(t, open) })
}

// manifest builds a plausible JobManifest for conformance writes.
func manifest(id, state string, at time.Time) sim.JobManifest {
	return sim.JobManifest{
		ID:      id,
		State:   state,
		Workers: 2,
		Request: sim.Request{Problem: "sedov", RootN: 16, Steps: 4},

		SubmittedAt: at,
	}
}

// artifact builds a derived-output product with the given payload.
func artifact(name string, data []byte) analysis.Artifact {
	return analysis.Artifact{
		Name:        name,
		Kind:        analysis.KindProjection,
		Field:       "rho",
		Step:        3,
		Time:        0.25,
		ContentType: "image/x-portable-graymap",
		Data:        data,
	}
}

func testManifestRecover(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	base := time.Now().Add(-time.Minute).Truncate(time.Second)

	// The WAL contract: every transition is accepted, the latest write
	// wins. Two jobs with distinct submit times pin Recover's ordering.
	old := manifest("job-old", "queued", base)
	if err := s.SaveManifest(old); err != nil {
		t.Fatal(err)
	}
	old.State = "running"
	if err := s.SaveManifest(old); err != nil {
		t.Fatal(err)
	}
	old.State = sim.ManifestInterrupted
	old.Steps, old.Time = 7, 0.5
	if err := s.SaveManifest(old); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(manifest("job-new", "queued", base.Add(10*time.Second))); err != nil {
		t.Fatal(err)
	}

	recovered, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(recovered))
	}
	// Oldest submission first, so scheduler eviction order survives.
	if recovered[0].Manifest.ID != "job-old" || recovered[1].Manifest.ID != "job-new" {
		t.Fatalf("recover order %s, %s", recovered[0].Manifest.ID, recovered[1].Manifest.ID)
	}
	got := recovered[0].Manifest
	if got.State != sim.ManifestInterrupted || got.Steps != 7 || got.Time != 0.5 {
		t.Fatalf("latest manifest write did not win: %+v", got)
	}
	if got.Workers != 2 || got.Request.Problem != "sedov" || got.Request.RootN != 16 {
		t.Fatalf("manifest identity fields lost: %+v", got)
	}
	if !got.SubmittedAt.Equal(base) {
		t.Fatalf("submit time %v != %v", got.SubmittedAt, base)
	}
}

// testEqualSubmitTimes: jobs submitted at one instant recover in ID
// order on every store, so a restart re-queues and evicts them alike.
func testEqualSubmitTimes(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	at := time.Now().Truncate(time.Second)
	var want, got []string
	for i := range 24 {
		want = append(want, fmt.Sprintf("job-%02d", i))
		// 7 is coprime to 24: the writes visit every ID out of order.
		if err := s.SaveManifest(manifest(fmt.Sprintf("job-%02d", i*7%24), "queued", at)); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := s.Recover()
	for _, rec := range recovered {
		got = append(got, rec.Manifest.ID)
	}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("Recover = %v, %v; want %v", got, err, want)
	}
}

func testResult(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	m := manifest("job-done", "done", time.Now())
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{Hash: "deadbeef", Steps: 9, Time: 1.5, MaxLevel: 2, NumGrids: 11}
	if err := s.SaveResult(m.ID, res); err != nil {
		t.Fatal(err)
	}
	recovered, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Result == nil {
		t.Fatalf("done job did not recover with a result: %+v", recovered)
	}
	if got := recovered[0].Result; got.Hash != res.Hash || got.Steps != res.Steps || got.NumGrids != res.NumGrids {
		t.Fatalf("result round-trip: got %+v want %+v", got, res)
	}
}

func testArtifacts(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	if err := s.SaveManifest(manifest("job-art", "done", time.Now())); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("enzogo"), 64)
	hash := sim.HashBytes(payload)
	other := []byte("a different payload entirely")
	otherHash := sim.HashBytes(other)

	// Two names sharing one payload, one distinct: the shared payload
	// must occupy a single blob.
	for i, a := range []analysis.Artifact{
		artifact("proj_step0001.pgm", payload),
		artifact("proj_step0002.pgm", payload),
		artifact("slice_step0002.pgm", other),
	} {
		h := hash
		if i == 2 {
			h = otherHash
		}
		if err := s.SaveArtifact("job-art", a, h); err != nil {
			t.Fatal(err)
		}
	}

	if got, err := s.LoadBlob(hash); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("LoadBlob round-trip: %v (%d bytes)", err, len(got))
	}
	st := s.Stats()
	if st.ArtifactCount != 3 || st.BlobCount != 2 {
		t.Fatalf("stats after dedupe: %+v", st)
	}
	if st.DedupeBytes != int64(len(payload)) {
		t.Fatalf("dedupe gauge %d, want %d", st.DedupeBytes, len(payload))
	}

	// Recover surfaces metadata rows in production order, no payloads.
	recovered, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || len(recovered[0].Artifacts) != 3 {
		t.Fatalf("recovered artifacts: %+v", recovered)
	}
	names := []string{}
	for _, a := range recovered[0].Artifacts {
		names = append(names, a.Name)
		if a.Hash == "" || a.Size != int(len(payload)) && a.Hash != otherHash {
			t.Fatalf("artifact meta incomplete: %+v", a)
		}
	}
	want := []string{"proj_step0001.pgm", "proj_step0002.pgm", "slice_step0002.pgm"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("artifact order %v, want %v", names, want)
	}
	// Artifacts lists the same rows, production order, without Recover.
	wantRows(t, s, "job-art", "proj_step0001.pgm", hash, "proj_step0002.pgm", hash, "slice_step0002.pgm", otherHash)

	// Deleting one of the two references must keep the shared blob;
	// deleting the last reference reclaims it.
	if err := s.DeleteArtifacts("job-art", []string{"proj_step0001.pgm"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadBlob(hash); err != nil {
		t.Fatal("blob reclaimed while still referenced")
	}
	wantRows(t, s, "job-art", "proj_step0002.pgm", hash, "slice_step0002.pgm", otherHash)
	if err := s.DeleteArtifacts("job-art", []string{"proj_step0002.pgm"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadBlob(hash); err == nil {
		t.Fatal("blob survived its last dereference")
	}
	if st := s.Stats(); st.ArtifactCount != 1 || st.BlobCount != 1 {
		t.Fatalf("stats after deletes: %+v", st)
	}

	// Saving a name again replaces its row where it stands.
	third := []byte("produced after the deletes")
	for _, a := range []analysis.Artifact{artifact("proj_step0003.pgm", third), artifact("slice_step0002.pgm", payload)} {
		if err := s.SaveArtifact("job-art", a, sim.HashBytes(a.Data)); err != nil {
			t.Fatal(err)
		}
	}
	wantRows(t, s, "job-art", "slice_step0002.pgm", hash, "proj_step0003.pgm", sim.HashBytes(third))
	// The rows are the caller's copy.
	rows, _ := s.Artifacts("job-art")
	rows[0].Name = "scribbled.pgm"
	wantRows(t, s, "job-art", "slice_step0002.pgm", hash, "proj_step0003.pgm", sim.HashBytes(third))
	wantRows(t, s, "job-unknown")
}

// wantRows checks Store.Artifacts(id) against name, hash pairs in order.
func wantRows(t *testing.T, s sim.Store, id string, nameHash ...string) {
	t.Helper()
	rows, err := s.Artifacts(id)
	if err != nil {
		t.Fatalf("Artifacts(%s): %v", id, err)
	}
	var got []string
	for _, row := range rows {
		got = append(got, row.Name, row.Hash)
	}
	if !slices.Equal(got, nameHash) {
		t.Fatalf("Artifacts(%s) = %v, want %v", id, got, nameHash)
	}
}

func testCheckpoints(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	const id = "job-ckpt"
	if ck, err := s.LatestCheckpoint(id); err != nil || ck != nil {
		t.Fatalf("checkpoint on empty store: %v, %v", ck, err)
	}
	// Out of step order, as a late replica push can arrive: every store
	// keeps exactly one checkpoint per job, the highest step.
	for _, w := range []struct {
		step int
		data string
	}{{4, "early"}, {14, "latest"}, {9, "late arrival"}} {
		if err := s.SaveCheckpoint(id, w.step, []byte(w.data)); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := s.LatestCheckpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Step != 14 || !bytes.Equal(ck.Data, []byte("latest")) {
		t.Fatalf("latest checkpoint: %+v", ck)
	}
	if st := s.Stats(); st.CheckpointCount != 1 || st.CheckpointBytes < int64(len("latest")) {
		t.Fatalf("checkpoint gauges: %+v, want one checkpoint", st)
	}
	if err := s.DeleteCheckpoints(id); err != nil {
		t.Fatal(err)
	}
	if ck, err := s.LatestCheckpoint(id); err != nil || ck != nil {
		t.Fatalf("checkpoint survived DeleteCheckpoints: %v, %v", ck, err)
	}
	if st := s.Stats(); st.CheckpointCount != 0 || st.CheckpointBytes != 0 {
		t.Fatalf("checkpoint gauges after delete: %+v", st)
	}
}

func testDeleteJob(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	const id = "job-gone"
	if err := s.SaveManifest(manifest(id, "done", time.Now())); err != nil {
		t.Fatal(err)
	}
	payload := []byte("soon to be orphaned")
	hash := sim.HashBytes(payload)
	if err := s.SaveArtifact(id, artifact("proj_step0001.pgm", payload), hash); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(id, 3, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob(id); err != nil {
		t.Fatal(err)
	}
	recovered, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("deleted job recovered: %+v", recovered)
	}
	if _, err := s.LoadBlob(hash); err == nil {
		t.Fatal("deleted job's blob still readable")
	}
	if st := s.Stats(); st != (sim.StoreStats{DedupeBytes: st.DedupeBytes}) {
		t.Fatalf("gauges non-zero after DeleteJob: %+v", st)
	}
}

// testManifestlessSwept: a record that only ever received artifact and
// checkpoint bytes (what a standby peer holds for another peer's job)
// is readable until Recover, and does not survive it — its checkpoint
// and index rows go and its blob references are released, while a
// payload a manifest-bearing job shares stays readable.
func testManifestlessSwept(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	if err := s.SaveManifest(manifest("kept", "done", time.Now())); err != nil {
		t.Fatal(err)
	}
	shared, own := []byte("both jobs produced this"), []byte("only the orphan produced this")
	for _, w := range []struct {
		id, name string
		data     []byte
	}{{"kept", "proj_step0001.pgm", shared}, {"orphan", "proj_step0001.pgm", shared}, {"orphan", "slice_step0001.pgm", own}} {
		if err := s.SaveArtifact(w.id, artifact(w.name, w.data), sim.HashBytes(w.data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveCheckpoint("orphan", 7, []byte("replicated checkpoint")); err != nil {
		t.Fatal(err)
	}
	// What a takeover reads before any Recover.
	wantRows(t, s, "orphan", "proj_step0001.pgm", sim.HashBytes(shared), "slice_step0001.pgm", sim.HashBytes(own))
	if ck, err := s.LatestCheckpoint("orphan"); err != nil || ck == nil || ck.Step != 7 {
		t.Fatalf("standby checkpoint before Recover: %+v, %v", ck, err)
	}
	recovered, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Manifest.ID != "kept" || len(recovered[0].Artifacts) != 1 {
		t.Fatalf("recovered %+v, want only the manifest-bearing job and its one artifact", recovered)
	}
	if ck, err := s.LatestCheckpoint("orphan"); err != nil || ck != nil {
		t.Fatalf("manifest-less checkpoint survived Recover: %v, %v", ck, err)
	}
	wantRows(t, s, "orphan")
	if _, err := s.LoadBlob(sim.HashBytes(own)); err == nil {
		t.Fatal("manifest-less record's own blob survived Recover")
	}
	if got, err := s.LoadBlob(sim.HashBytes(shared)); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("blob shared with a live job was reclaimed: %v", err)
	}
	st := s.Stats()
	st.DedupeBytes = 0 // a process-lifetime counter, not a gauge
	n := int64(len(shared))
	if want := (sim.StoreStats{ArtifactBytes: n, ArtifactCount: 1, BlobBytes: n, BlobCount: 1}); st != want {
		t.Fatalf("gauges after the sweep: %+v, want %+v", st, want)
	}
}

func testCostModel(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	defer s.Close()
	// An empty store holds no model state.
	if state, err := s.LoadCostModel(); err != nil || state != nil {
		t.Fatalf("LoadCostModel on empty store: %q, %v", state, err)
	}
	first := []byte(`{"version":1,"problems":{"sedov":[]}}`)
	if err := s.SaveCostModel(first); err != nil {
		t.Fatal(err)
	}
	second := []byte(`{"version":1,"problems":{"sedov":[{"job_id":"a"}]}}`)
	if err := s.SaveCostModel(second); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadCostModel()
	if err != nil {
		t.Fatal(err)
	}
	// The blob round-trips byte-for-byte and the latest write wins.
	if !bytes.Equal(got, second) {
		t.Fatalf("cost-model state round-trip: got %q want %q", got, second)
	}
}

func testEmpty(t *testing.T, open func(t *testing.T) sim.Store) {
	s := open(t)
	// Deletes of never-seen jobs are idempotent no-ops everywhere.
	if err := s.DeleteJob("never-existed"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCheckpoints("never-existed"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteArtifacts("never-existed", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	recovered, err := s.Recover()
	if err != nil || len(recovered) != 0 {
		t.Fatalf("empty store recover: %v, %v", recovered, err)
	}
	if st := s.Stats(); st != (sim.StoreStats{}) {
		t.Fatalf("empty store stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
