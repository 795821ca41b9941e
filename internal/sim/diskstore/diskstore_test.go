package diskstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestManifestWALAtomicAndLatestWins(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	m := sim.JobManifest{ID: "abc123", State: "queued", Workers: 2, SubmittedAt: time.Now()}
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	m.State = "running"
	m.StartedAt = time.Now()
	if err := s.SaveManifest(m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "abc123", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got sim.JobManifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != "running" || got.Workers != 2 {
		t.Fatalf("latest transition lost: %+v", got)
	}
	// No torn temp files left behind.
	entries, _ := os.ReadDir(filepath.Join(dir, "jobs", "abc123"))
	for _, e := range entries {
		if e.Name() != "manifest.json" {
			t.Fatalf("unexpected residue %q", e.Name())
		}
	}
}

func TestCheckpointLatestAndPruning(t *testing.T) {
	s := open(t, t.TempDir())
	for step, payload := range map[int]string{4: "four", 9: "nine", 14: "fourteen"} {
		if err := s.SaveCheckpoint("j", step, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := s.LatestCheckpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Step != 14 || string(ck.Data) != "fourteen" {
		t.Fatalf("latest checkpoint %+v", ck)
	}
	// Only the latest keepCheckpoints survive.
	entries, err := os.ReadDir(filepath.Join(s.Root(), "jobs", "j", "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != keepCheckpoints {
		t.Fatalf("retained %d checkpoints, want %d", len(entries), keepCheckpoints)
	}
	if st := s.Stats(); st.CheckpointCount != keepCheckpoints {
		t.Fatalf("stats count %d, want %d", st.CheckpointCount, keepCheckpoints)
	}
	if err := s.DeleteCheckpoints("j"); err != nil {
		t.Fatal(err)
	}
	if ck, _ := s.LatestCheckpoint("j"); ck != nil {
		t.Fatalf("checkpoints survived deletion: %+v", ck)
	}
	if st := s.Stats(); st.CheckpointBytes != 0 || st.CheckpointCount != 0 {
		t.Fatalf("checkpoint gauges not zeroed: %+v", st)
	}
}

func TestCheckpointSameStepRewriteAccounting(t *testing.T) {
	// A drain landing on a cadence boundary rewrites the same step file;
	// the gauges must track the replacement, not double-count it.
	s := open(t, t.TempDir())
	if err := s.SaveCheckpoint("j", 5, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("j", 5, make([]byte, 70)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CheckpointCount != 1 || st.CheckpointBytes != 70 {
		t.Fatalf("same-step rewrite miscounted: %+v", st)
	}
}

func TestLatestCheckpointNoneIsNil(t *testing.T) {
	s := open(t, t.TempDir())
	if ck, err := s.LatestCheckpoint("ghost"); err != nil || ck != nil {
		t.Fatalf("want nil,nil for absent job, got %+v, %v", ck, err)
	}
}

func TestArtifactOrderReplaceAndEviction(t *testing.T) {
	s := open(t, t.TempDir())
	arts := []analysis.Artifact{
		{Name: "00_a.pgm", Kind: "slice", Step: 1, ContentType: "image/x-portable-graymap", Data: []byte("aaa")},
		{Name: "01_b.json", Kind: "profile", Step: 1, ContentType: "application/json", Data: []byte("bbbb")},
		{Name: "00_c.snap", Kind: "snapshot", Step: 2, ContentType: "application/octet-stream", Data: []byte("ccccc"), RawSize: 50},
	}
	for _, a := range arts {
		if err := s.SaveArtifact("j", a, sim.HashBytes(a.Data)); err != nil {
			t.Fatal(err)
		}
	}
	// Replace the middle one; order must be preserved.
	repl := analysis.Artifact{
		Name: "01_b.json", Kind: "profile", Step: 3, ContentType: "application/json", Data: []byte("B2"),
	}
	if err := s.SaveArtifact("j", repl, sim.HashBytes(repl.Data)); err != nil {
		t.Fatal(err)
	}
	// Recover deletes manifest-less job dirs (storetest's
	// ManifestlessSwept), so the job needs its manifest first.
	if err := s.SaveManifest(sim.JobManifest{ID: "j", State: "done"}); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v (%d records)", err, len(recs))
	}
	got := recs[0].Artifacts
	if len(got) != 3 {
		t.Fatalf("recovered %d artifacts, want 3", len(got))
	}
	wantOrder := []string{"00_a.pgm", "01_b.json", "00_c.snap"}
	for i, name := range wantOrder {
		if got[i].Name != name {
			t.Fatalf("production order lost: slot %d = %q, want %q", i, got[i].Name, name)
		}
	}
	if got[1].Step != 3 || got[1].Size != 2 || got[1].Hash != sim.HashBytes([]byte("B2")) {
		t.Fatalf("replacement not applied: %+v", got[1])
	}
	if data, err := s.LoadBlob(got[1].Hash); err != nil || string(data) != "B2" {
		t.Fatalf("replacement payload: %q, %v", data, err)
	}
	if got[2].RawSize != 50 {
		t.Fatalf("raw size lost: %+v", got[2])
	}
	// The replaced payload's blob lost its last reference and is gone.
	if _, err := s.LoadBlob(sim.HashBytes([]byte("bbbb"))); err == nil {
		t.Fatal("replaced blob not reclaimed")
	}

	if err := s.DeleteArtifacts("j", []string{"00_a.pgm"}); err != nil {
		t.Fatal(err)
	}
	recs, _ = s.Recover()
	if len(recs[0].Artifacts) != 2 || recs[0].Artifacts[0].Name != "01_b.json" {
		t.Fatalf("eviction mirror wrong: %+v", recs[0].Artifacts)
	}
	if st := s.Stats(); st.ArtifactCount != 2 || st.ArtifactBytes != int64(len("B2")+len("ccccc")) {
		t.Fatalf("artifact gauges wrong after delete: %+v", st)
	}
}

func TestUnsafeArtifactNamesRejected(t *testing.T) {
	s := open(t, t.TempDir())
	for _, name := range []string{"", "../escape", "a/b", ".hidden", "index.json"} {
		if err := s.SaveArtifact("j", analysis.Artifact{Name: name, Data: []byte("x")}, sim.HashBytes([]byte("x"))); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	// Hashes that are not plain sha256 hex never reach the filesystem.
	for _, hash := range []string{"", "short", "../../etc/passwd", string(make([]byte, 64))} {
		if err := s.SaveArtifact("j", analysis.Artifact{Name: "ok.pgm", Data: []byte("x")}, hash); err == nil {
			t.Fatalf("hash %q accepted", hash)
		}
		if _, err := s.LoadBlob(hash); err == nil {
			t.Fatalf("LoadBlob accepted hash %q", hash)
		}
	}
}

func TestUnsafeJobIDsRejected(t *testing.T) {
	s := open(t, t.TempDir())
	x := []byte("x")
	for _, id := range []string{"", "..", "../escape", "a/b", `a\b`, ".hidden"} {
		_, ckErr := s.LatestCheckpoint(id)
		for name, err := range map[string]error{
			"SaveManifest":      s.SaveManifest(sim.JobManifest{ID: id}),
			"SaveResult":        s.SaveResult(id, &sim.Result{}),
			"SaveArtifact":      s.SaveArtifact(id, analysis.Artifact{Name: "ok.pgm", Data: x}, sim.HashBytes(x)),
			"DeleteArtifacts":   s.DeleteArtifacts(id, []string{"ok.pgm"}),
			"SaveCheckpoint":    s.SaveCheckpoint(id, 0, x),
			"LatestCheckpoint":  ckErr,
			"DeleteCheckpoints": s.DeleteCheckpoints(id),
			"DeleteJob":         s.DeleteJob(id),
		} {
			if err == nil {
				t.Errorf("%s accepted job id %q", name, id)
			}
		}
	}
}

func TestStatsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveManifest(sim.JobManifest{ID: "j", State: "interrupted"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("j", 3, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveArtifact("j", analysis.Artifact{Name: "00_x.pgm", Data: make([]byte, 300)}, sim.HashBytes(make([]byte, 300))); err != nil {
		t.Fatal(err)
	}
	want := s.Stats()
	s2 := open(t, dir)
	if got := s2.Stats(); got != want {
		t.Fatalf("reopened gauges %+v, want %+v", got, want)
	}
	if got := want; got.CheckpointBytes != 1000 || got.ArtifactBytes != 300 {
		t.Fatalf("gauges wrong: %+v", want)
	}
	// Result round-trip.
	res := &sim.Result{Hash: "deadbeef", Steps: 7, Time: 1.5}
	if err := s2.SaveResult("j", res); err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveManifest(sim.JobManifest{ID: "j", State: "done"}); err != nil {
		t.Fatal(err)
	}
	recs, err := s2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("recover: %v", err)
	}
	if recs[0].Result == nil || recs[0].Result.Hash != "deadbeef" || recs[0].Result.Steps != 7 {
		t.Fatalf("result lost: %+v", recs[0].Result)
	}
	if err := s2.DeleteJob("j"); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.ArtifactBytes != 0 || st.CheckpointBytes != 0 {
		t.Fatalf("DeleteJob left gauges: %+v", st)
	}
	if recs, _ := s2.Recover(); len(recs) != 0 {
		t.Fatalf("job survived deletion")
	}
}

func TestOrphanTempFilesSweptAndUncounted(t *testing.T) {
	// A kill between CreateTemp and Rename leaves a .tmp-* orphan; New
	// must neither count it as payload nor leave it behind.
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.SaveCheckpoint("j", 1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "jobs", "j", "checkpoints", ".tmp-123456")
	if err := os.WriteFile(orphan, make([]byte, 9999), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if st := s2.Stats(); st.CheckpointCount != 1 || st.CheckpointBytes != 500 {
		t.Fatalf("orphan temp file counted: %+v", st)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp file not swept: %v", err)
	}
}

// countBlobs walks <root>/blobs and returns the blob files on disk.
func countBlobs(t *testing.T, root string) []string {
	t.Helper()
	var blobs []string
	shards, _ := os.ReadDir(filepath.Join(root, "blobs"))
	for _, shard := range shards {
		entries, _ := os.ReadDir(filepath.Join(root, "blobs", shard.Name()))
		for _, e := range entries {
			blobs = append(blobs, e.Name())
		}
	}
	return blobs
}

func TestIdenticalPayloadsAcrossJobsShareOneBlob(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	payload := []byte("same bytes from two different jobs")
	hash := sim.HashBytes(payload)
	a := analysis.Artifact{Name: "00_p.pgm", Kind: "projection", ContentType: "image/x-portable-graymap", Data: payload}
	if err := s.SaveArtifact("job1", a, hash); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveArtifact("job2", a, hash); err != nil {
		t.Fatal(err)
	}
	if blobs := countBlobs(t, dir); len(blobs) != 1 || blobs[0] != hash {
		t.Fatalf("want exactly one shared blob %s, got %v", hash, blobs)
	}
	st := s.Stats()
	if st.BlobCount != 1 || st.BlobBytes != int64(len(payload)) {
		t.Fatalf("physical gauges wrong: %+v", st)
	}
	if st.ArtifactCount != 2 || st.ArtifactBytes != 2*int64(len(payload)) {
		t.Fatalf("logical gauges wrong: %+v", st)
	}
	if st.DedupeBytes != int64(len(payload)) {
		t.Fatalf("dedupe counter %d, want %d", st.DedupeBytes, len(payload))
	}
	// The blob survives the first dereference and dies with the last.
	if err := s.DeleteJob("job1"); err != nil {
		t.Fatal(err)
	}
	if data, err := s.LoadBlob(hash); err != nil || string(data) != string(payload) {
		t.Fatalf("blob lost while job2 still references it: %v", err)
	}
	if err := s.DeleteJob("job2"); err != nil {
		t.Fatal(err)
	}
	if len(countBlobs(t, dir)) != 0 {
		t.Fatal("blob survived its last dereference")
	}
	if st := s.Stats(); st.BlobBytes != 0 || st.BlobCount != 0 {
		t.Fatalf("blob gauges not zeroed: %+v", st)
	}
}

func TestContentHashStableAcrossReopen(t *testing.T) {
	// The content hash is the HTTP ETag: a restart must recover the
	// exact same hash for the same payload, and reopening must rebuild
	// the refcount table so the blob remains readable and reclaimable.
	dir := t.TempDir()
	s := open(t, dir)
	payload := []byte("etag-stable payload")
	hash := sim.HashBytes(payload)
	if err := s.SaveManifest(sim.JobManifest{ID: "j", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveArtifact("j", analysis.Artifact{Name: "00_e.pgm", Data: payload}, hash); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	recs, err := s2.Recover()
	if err != nil || len(recs) != 1 || len(recs[0].Artifacts) != 1 {
		t.Fatalf("recover: %v %+v", err, recs)
	}
	if got := recs[0].Artifacts[0].Hash; got != hash {
		t.Fatalf("hash changed across reopen: %s != %s", got, hash)
	}
	if data, err := s2.LoadBlob(hash); err != nil || string(data) != string(payload) {
		t.Fatalf("blob unreadable after reopen: %v", err)
	}
	if err := s2.DeleteJob("j"); err != nil {
		t.Fatal(err)
	}
	if len(countBlobs(t, dir)) != 0 {
		t.Fatal("rebuilt refcounts did not reclaim the blob")
	}
}

func TestOrphanBlobsSweptAtOpen(t *testing.T) {
	// A kill between the blob write and the index write leaves a blob no
	// row references; New must sweep it without touching referenced ones.
	dir := t.TempDir()
	s := open(t, dir)
	payload := []byte("kept")
	if err := s.SaveArtifact("j", analysis.Artifact{Name: "00_k.pgm", Data: payload}, sim.HashBytes(payload)); err != nil {
		t.Fatal(err)
	}
	orphanHash := sim.HashBytes([]byte("orphan"))
	orphanPath := filepath.Join(dir, "blobs", orphanHash[:2], orphanHash)
	if err := os.MkdirAll(filepath.Dir(orphanPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphanPath, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatalf("orphan blob not swept: %v", err)
	}
	if st := s2.Stats(); st.BlobCount != 1 || st.BlobBytes != int64(len(payload)) {
		t.Fatalf("blob gauges after sweep: %+v", st)
	}
	if _, err := s2.LoadBlob(sim.HashBytes(payload)); err != nil {
		t.Fatalf("referenced blob swept: %v", err)
	}
}

func TestRecoverOrdersBySubmitTime(t *testing.T) {
	s := open(t, t.TempDir())
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i, id := range []string{"ccc", "aaa", "bbb"} {
		err := s.SaveManifest(sim.JobManifest{
			ID: id, State: "done", SubmittedAt: base.Add(time.Duration(2-i) * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bbb", "aaa", "ccc"} // oldest submission first
	for i, rec := range recs {
		if rec.Manifest.ID != want[i] {
			t.Fatalf("recover order %d = %s, want %s", i, rec.Manifest.ID, want[i])
		}
	}
}
