package diskstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzJobID is the job directory the fuzz input is written into.
const fuzzJobID = "0123456789abcdef"

// FuzzDiskstoreRecover writes arbitrary bytes as one job's manifest.json,
// artifacts/index.json and result.json, then opens the store, recovers it,
// opens it again and deletes every recovered job. Reopening must be a
// fixed point: the second store reports the first one's gauges and
// Recover output. Nothing read from disk may panic the store or reach a
// path outside its root: a sentinel file beside the root must survive.
// The committed corpus holds a valid record, an index row with a
// one-character content hash (blobPath slices hash[:2]) and one whose
// hash names ../sentinel.
func FuzzDiskstoreRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, index, result []byte) {
		parent := t.TempDir()
		sentinel := filepath.Join(parent, "sentinel")
		root := filepath.Join(parent, "root")
		job := filepath.Join(root, "jobs", fuzzJobID)
		for path, data := range map[string][]byte{
			sentinel:                            []byte("keep"),
			filepath.Join(job, "manifest.json"): manifest,
			filepath.Join(job, "artifacts", indexFile): index,
			filepath.Join(job, "result.json"):          result,
		} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		// Errors are allowed; only a panic, an escape or a store that
		// reopens differently fails.
		recs, _ := s.Recover()
		st := s.Stats()
		s2, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		recs2, _ := s2.Recover()
		if got := s2.Stats(); got != st || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("reopened store differs: %+v %+v, want %+v %+v", got, recs2, st, recs)
		}
		for _, rec := range recs2 {
			s2.DeleteJob(rec.Manifest.ID)
		}
		if _, err := os.Stat(sentinel); err != nil {
			t.Fatalf("sentinel beside the data root: %v", err)
		}
	})
}
