// Package diskstore is the disk-backed sim.Store: one directory per job
// under a data root, keyed by the job's canonical request hash, so a
// restarted `enzogo serve -data dir` (or enzobatch -data sweep) recovers
// completed results and artifacts as cache hits and resumes interrupted
// jobs from their latest checkpoint.
//
// On-disk layout (everything written via temp-file + atomic rename with
// fsync of the file and its parent directory, so a kill — or a power
// cut right after the rename — leaves either the old record or the new
// one, never a torn or lost file):
//
//	<root>/jobs/<id>/manifest.json        the job-state WAL (latest transition wins)
//	<root>/jobs/<id>/result.json          the terminal Result of a done job
//	<root>/jobs/<id>/artifacts/index.json retained artifact metadata rows
//	                                      (name → meta + content hash), production order
//	<root>/blobs/<hh>/<hash>              content-addressed artifact payloads,
//	                                      one per distinct sha256 across ALL jobs
//	<root>/jobs/<id>/checkpoints/step_NNNNNNNN.ckpt
//	                                      the snapshot-format restart point;
//	                                      only the highest step is retained
//
// Artifact payloads are content-addressed: identical products emitted
// by any number of jobs occupy one blob file, refcounted by the index
// rows that name their hash; the last dereference deletes the blob.
// Size gauges (checkpoint/artifact/blob bytes) are scanned once at open
// and maintained incrementally afterwards; blobs no index references
// (a crash between blob write and index write) are swept at open.
package diskstore

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// Store implements sim.Store on a directory tree. Safe for concurrent
// use; a single mutex serializes metadata writes (the payloads are
// large, but job persistence is off the step hot path — checkpoint
// cadence bounds how often it runs). Blob reads (LoadBlob) take no
// lock: a blob file appears whole by atomic rename and is removed only
// once no index row names it.
type Store struct {
	root string

	mu        sync.Mutex
	ckptBytes int64
	ckptCount int
	artBytes  int64 // logical bytes: sum of index-row sizes, before dedupe
	artCount  int
	blobBytes int64 // physical bytes: each distinct payload once
	blobCount int
	dedupe    int64          // bytes not rewritten because the blob existed
	refs      map[string]int // content hash -> referencing index rows
}

// New opens (creating if needed) a disk store rooted at dir, scans its
// current sizes, rebuilds the blob refcount table from the per-job
// indexes, and sweeps crash residue (orphaned temp files, unreferenced
// blobs).
func New(dir string) (*Store, error) {
	s := &Store{root: dir, refs: make(map[string]int)}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if err := os.MkdirAll(s.blobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	sweepTemps(s.root) // a kill mid-SaveCostModel leaves its temp at the root
	ids, err := s.jobIDs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		sweepTemps(s.jobDir(id))
		sweepTemps(s.ckptDir(id))
		sweepTemps(s.artDir(id))
		s.ckptBytes += dirBytes(s.ckptDir(id), &s.ckptCount)
		rows, err := s.loadArtIndex(id)
		if err != nil {
			continue // an unreadable index degrades to "no artifacts", never blocks startup
		}
		for _, row := range rows {
			s.artBytes += int64(row.Size)
			s.artCount++
			s.refs[row.Hash]++
		}
	}
	s.sweepBlobs()
	return s, nil
}

// sweepBlobs walks the blob tier, counting referenced blobs into the
// gauges and deleting unreferenced ones (a kill between the blob write
// and the index write orphans the blob; the index write ordering
// guarantees the reverse — a referenced-but-missing blob — cannot
// happen).
func (s *Store) sweepBlobs() {
	shards, err := os.ReadDir(s.blobsDir())
	if err != nil {
		return
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		dir := filepath.Join(s.blobsDir(), shard.Name())
		sweepTemps(dir)
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil || !fi.Mode().IsRegular() {
				continue
			}
			if s.refs[e.Name()] > 0 {
				s.blobBytes += fi.Size()
				s.blobCount++
			} else {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

// indexFile is the per-job artifact metadata index.
const indexFile = "index.json"

func (s *Store) jobsDir() string          { return filepath.Join(s.root, "jobs") }
func (s *Store) jobDir(id string) string  { return filepath.Join(s.jobsDir(), id) }
func (s *Store) ckptDir(id string) string { return filepath.Join(s.jobDir(id), "checkpoints") }
func (s *Store) artDir(id string) string  { return filepath.Join(s.jobDir(id), "artifacts") }
func (s *Store) blobsDir() string         { return filepath.Join(s.root, "blobs") }

// blobPath shards blob files by the first two hash characters so one
// directory never holds the whole tier.
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.blobsDir(), hash[:2], hash)
}

// tmpPrefix marks in-flight writeAtomic files; they are never payloads.
const tmpPrefix = ".tmp-"

// dirBytes sums the regular payload files under dir (0 when absent),
// counting them into *n. Orphaned writeAtomic temp files — a kill
// between CreateTemp and Rename leaves one — are excluded.
func dirBytes(dir string, n *int) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
			*n++
		}
	}
	return total
}

// sweepTemps deletes orphaned writeAtomic temp files under dir — the
// crash-residue cleanup New runs per job directory (each crash would
// otherwise add another orphan for the life of the job).
func sweepTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// jobIDs lists the job directories under the root.
func (s *Store) jobIDs() ([]string, error) {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// writeAtomic writes data to path via a temp file + rename, creating
// the parent directory if needed. The temp file is fsynced before the
// rename and the parent directory after it: rename alone makes the
// *contents* crash-safe, but until the directory entry itself is on
// disk a power cut can lose the whole record.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort on platforms whose directories reject fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Persistent reports true: this store is the durability backend.
func (s *Store) Persistent() bool { return true }

// SaveManifest rewrites the job's manifest.json atomically — the WAL of
// state transitions (the latest write wins; a kill leaves the previous
// record intact).
func (s *Store) SaveManifest(m sim.JobManifest) error { return s.saveJSON(m.ID, "manifest", m) }

// SaveResult persists a done job's result.json.
func (s *Store) SaveResult(id string, res *sim.Result) error { return s.saveJSON(id, "result", res) }

// saveJSON writes v, indented, as the job's <name>.json, atomically.
func (s *Store) saveJSON(id, name string, v any) error {
	if err := cleanID(id); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = writeAtomic(filepath.Join(s.jobDir(id), name+".json"), append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("diskstore: %s %s: %w", name, id, err)
	}
	return nil
}

// loadArtIndex reads a job's artifact index (empty when absent): one row
// per retained artifact, its payload in the blob tier under Hash. Rows
// the store would not have written — a hand-edited or corrupt index —
// are dropped, so no name or hash read from disk reaches a path.
func (s *Store) loadArtIndex(id string) ([]sim.ArtifactMeta, error) {
	data, err := os.ReadFile(filepath.Join(s.artDir(id), indexFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var idx []sim.ArtifactMeta
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, err
	}
	return slices.DeleteFunc(idx, func(row sim.ArtifactMeta) bool {
		return cleanName(row.Name) != nil || cleanHash(row.Hash) != nil || row.Size < 0
	}), nil
}

func (s *Store) saveArtIndex(id string, idx []sim.ArtifactMeta) error {
	data, err := json.Marshal(idx)
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(s.artDir(id), indexFile), append(data, '\n'))
}

// cleanID rejects job ids that could escape the jobs directory. The
// scheduler only mints hex ids; this guards the replica endpoints, whose
// ids arrive over the wire, and any future caller.
func cleanID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("diskstore: unsafe job id %q", id)
	}
	return nil
}

// cleanName rejects artifact names that could escape the job directory
// or overwrite its index. The analysis layer never produces such names;
// this is defense against a future producer that does.
func cleanName(name string) error {
	if name == indexFile || cleanID(name) != nil {
		return fmt.Errorf("diskstore: unsafe artifact name %q", name)
	}
	return nil
}

// cleanHash rejects content hashes that are not plain lowercase sha256
// hex — defense against a hash ever reaching filepath.Join.
func cleanHash(hash string) error {
	if len(hash) != 64 {
		return fmt.Errorf("diskstore: bad content hash %q", hash)
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("diskstore: bad content hash %q", hash)
		}
	}
	return nil
}

// SaveArtifact writes the payload into the content-addressed blob tier
// (skipping the write when an identical blob exists — the cross-job
// dedupe) and appends or replaces the job's index row, keeping
// production order. The blob lands before the index row referencing it,
// so a crash can orphan a blob (swept at next open) but never a row.
func (s *Store) SaveArtifact(id string, a analysis.Artifact, hash string) error {
	if err := errors.Join(cleanID(id), cleanName(a.Name), cleanHash(hash)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.loadArtIndex(id)
	if err != nil {
		return fmt.Errorf("diskstore: artifact index %s: %w", id, err)
	}
	if s.refs[hash] == 0 {
		if err := writeAtomic(s.blobPath(hash), a.Data); err != nil {
			return fmt.Errorf("diskstore: blob %s: %w", hash, err)
		}
		s.blobBytes += int64(len(a.Data))
		s.blobCount++
	} else {
		s.dedupe += int64(len(a.Data))
	}
	row := sim.ArtifactMeta{
		Name: a.Name, Kind: string(a.Kind), Field: a.Field,
		Step: a.Step, Time: a.Time, ContentType: a.ContentType,
		Size: len(a.Data), RawSize: a.RawSize, Hash: hash,
	}
	s.refs[hash]++
	replaced := false
	var oldHash string
	for i := range idx {
		if idx[i].Name == a.Name {
			s.artBytes += int64(row.Size - idx[i].Size)
			oldHash = idx[i].Hash
			idx[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		idx = append(idx, row)
		s.artCount++
		s.artBytes += int64(row.Size)
	}
	if err := s.saveArtIndex(id, idx); err != nil {
		return fmt.Errorf("diskstore: artifact index %s: %w", id, err)
	}
	if replaced {
		s.unrefLocked(oldHash)
	}
	return nil
}

// unrefLocked drops one reference to a blob, deleting the file when the
// last one goes; s.mu must be held.
func (s *Store) unrefLocked(hash string) {
	s.refs[hash]--
	if s.refs[hash] > 0 {
		return
	}
	delete(s.refs, hash)
	path := s.blobPath(hash)
	if fi, err := os.Stat(path); err == nil {
		s.blobBytes -= fi.Size()
		s.blobCount--
	}
	os.Remove(path)
}

// LoadBlob reads one content-addressed payload without taking the store
// mutex — the hot tier's miss path. The caller (sim.BlobCache) verifies
// the bytes against the hash.
func (s *Store) LoadBlob(hash string) ([]byte, error) {
	if err := cleanHash(hash); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.blobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("diskstore: blob %s: %w", hash, err)
	}
	return data, nil
}

// DeleteArtifacts removes the named index rows — mirroring the
// in-memory store's oldest-first eviction — and reclaims blobs no
// remaining row references.
func (s *Store) DeleteArtifacts(id string, names []string) error {
	if err := cleanID(id); err != nil || len(names) == 0 {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := s.loadArtIndex(id)
	if err != nil {
		return fmt.Errorf("diskstore: artifact index %s: %w", id, err)
	}
	doomed := make(map[string]bool, len(names))
	for _, n := range names {
		doomed[n] = true
	}
	kept := idx[:0]
	var unref []string
	for _, row := range idx {
		if !doomed[row.Name] {
			kept = append(kept, row)
			continue
		}
		s.artBytes -= int64(row.Size)
		s.artCount--
		unref = append(unref, row.Hash)
	}
	if err := s.saveArtIndex(id, kept); err != nil {
		return fmt.Errorf("diskstore: artifact index %s: %w", id, err)
	}
	// Index first, blobs second: a kill in between leaves orphaned blobs
	// (swept at open), never rows pointing at deleted payloads.
	for _, h := range unref {
		s.unrefLocked(h)
	}
	return nil
}

// ckptName renders the checkpoint file for a root step; the fixed-width
// numbering makes lexical order equal step order.
func ckptName(step int) string { return fmt.Sprintf("step_%08d.ckpt", step) }

// ckptStep parses a checkpoint file name back to its step (-1 when the
// name is not a checkpoint).
func ckptStep(name string) int {
	var step int
	if _, err := fmt.Sscanf(name, "step_%d.ckpt", &step); err != nil {
		return -1
	}
	return step
}

// SaveCheckpoint writes the restart point atomically and prunes every
// checkpoint of the job but the highest step — the only one
// LatestCheckpoint reads. The atomic write means a kill mid-write never
// tears the newest file, so no older one is kept as a fallback.
func (s *Store) SaveCheckpoint(id string, step int, data []byte) error {
	if err := cleanID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.ckptDir(id)
	path := filepath.Join(dir, ckptName(step))
	// Rewriting the same step (a drain landing on a cadence boundary)
	// replaces the file: account for the old size instead of
	// double-counting.
	var oldSize int64 = -1
	if fi, err := os.Stat(path); err == nil {
		oldSize = fi.Size()
	}
	if err := writeAtomic(path, data); err != nil {
		return fmt.Errorf("diskstore: checkpoint %s step %d: %w", id, step, err)
	}
	if oldSize >= 0 {
		s.ckptBytes += int64(len(data)) - oldSize
	} else {
		s.ckptBytes += int64(len(data))
		s.ckptCount++
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // the checkpoint itself landed; pruning is best-effort
	}
	latest := -1
	for _, e := range entries {
		latest = max(latest, ckptStep(e.Name()))
	}
	for _, e := range entries {
		if step := ckptStep(e.Name()); step < 0 || step == latest {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if fi, err := os.Stat(path); err == nil {
			s.ckptBytes -= fi.Size()
			s.ckptCount--
		}
		os.Remove(path)
	}
	return nil
}

// LatestCheckpoint loads the most recent checkpoint, nil when the job
// has none.
func (s *Store) LatestCheckpoint(id string) (*sim.Checkpoint, error) {
	if err := cleanID(id); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.ckptDir(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: checkpoints %s: %w", id, err)
	}
	best, bestStep := "", -1
	for _, e := range entries {
		if step := ckptStep(e.Name()); step > bestStep {
			best, bestStep = e.Name(), step
		}
	}
	if bestStep < 0 {
		return nil, nil
	}
	path := filepath.Join(s.ckptDir(id), best)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("diskstore: checkpoint %s: %w", id, err)
	}
	ck := &sim.Checkpoint{Step: bestStep, Data: data}
	if fi, err := os.Stat(path); err == nil {
		ck.At = fi.ModTime()
	}
	return ck, nil
}

// DeleteCheckpoints drops every checkpoint of a job (it reached a
// terminal state; there is nothing left to resume).
func (s *Store) DeleteCheckpoints(id string) error {
	if err := cleanID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	s.ckptBytes -= dirBytes(s.ckptDir(id), &n)
	s.ckptCount -= n
	if err := os.RemoveAll(s.ckptDir(id)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// DeleteJob removes the job's whole directory and dereferences every
// blob its index rows named.
func (s *Store) DeleteJob(id string) error {
	if err := cleanID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	s.ckptBytes -= dirBytes(s.ckptDir(id), &n)
	s.ckptCount -= n
	if rows, err := s.loadArtIndex(id); err == nil {
		for _, row := range rows {
			s.artBytes -= int64(row.Size)
			s.artCount--
			s.unrefLocked(row.Hash)
		}
	}
	if err := os.RemoveAll(s.jobDir(id)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// Recover loads every persisted job: its manifest, the terminal result
// of done jobs, and the retained artifact metadata in production order
// — rows only, no payload reads; the bytes stay in the blob tier until
// a reader asks. A job directory without a manifest (a standby's
// replicated bytes after a restart, a kill between MkdirAll and the
// first manifest write) is deleted — nothing can reach it again; one
// whose manifest is unreadable is skipped and kept. Neither takes the
// service down: a failed delete is reported beside the recovered jobs.
func (s *Store) Recover() ([]sim.RecoveredJob, error) {
	ids, err := s.jobIDs()
	if err != nil {
		return nil, err
	}
	var out []sim.RecoveredJob
	var sweepErr error
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(s.jobDir(id), "manifest.json"))
		if errors.Is(err, os.ErrNotExist) {
			sweepErr = errors.Join(sweepErr, s.DeleteJob(id))
			continue
		}
		if err != nil {
			continue
		}
		var m sim.JobManifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID != id {
			continue
		}
		rec := sim.RecoveredJob{Manifest: m}
		if res, err := os.ReadFile(filepath.Join(s.jobDir(id), "result.json")); err == nil {
			var r sim.Result
			if json.Unmarshal(res, &r) == nil {
				rec.Result = &r
			}
		}
		rec.Artifacts, _ = s.loadArtIndex(id) // unreadable: no artifacts
		out = append(out, rec)
	}
	// Oldest submissions first, so the scheduler's eviction order (and
	// GET /jobs listing order) survives the restart; ties in id order, as
	// the in-memory store orders them.
	slices.SortFunc(out, func(a, b sim.RecoveredJob) int {
		return cmp.Or(a.Manifest.SubmittedAt.Compare(b.Manifest.SubmittedAt), cmp.Compare(a.Manifest.ID, b.Manifest.ID))
	})
	return out, sweepErr
}

// costModelFile holds the scheduler's serialized cost-model state at
// the data root (it spans jobs, so it lives beside jobs/, not inside).
const costModelFile = "costmodel.json"

// SaveCostModel persists the cost-model state atomically; the latest
// write wins, like the manifest WAL.
func (s *Store) SaveCostModel(state []byte) error {
	if err := writeAtomic(filepath.Join(s.root, costModelFile), state); err != nil {
		return fmt.Errorf("diskstore: cost model: %w", err)
	}
	return nil
}

// LoadCostModel reads the persisted cost-model state back, nil when
// none has been saved yet.
func (s *Store) LoadCostModel() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.root, costModelFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("diskstore: cost model: %w", err)
	}
	return data, nil
}

// Stats reports the maintained size gauges.
func (s *Store) Stats() sim.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sim.StoreStats{
		CheckpointBytes: s.ckptBytes,
		CheckpointCount: s.ckptCount,
		ArtifactBytes:   s.artBytes,
		ArtifactCount:   s.artCount,
		BlobBytes:       s.blobBytes,
		BlobCount:       s.blobCount,
		DedupeBytes:     s.dedupe,
	}
}

// Close is a no-op: every write is already durable by the time the
// call that made it returned.
func (s *Store) Close() error { return nil }

// Root returns the data directory the store was opened on.
func (s *Store) Root() string { return s.root }

// interface check
var _ sim.Store = (*Store)(nil)
