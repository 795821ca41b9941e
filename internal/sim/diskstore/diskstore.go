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
//
// The store keeps its bookkeeping in a sim.Index, loaded once at open
// from the manifests, results, artifact indexes and checkpoint names on
// disk, and writes every change through to the files; gauges, Recover
// and the checkpoint lookups are answered from the index. One process
// owns a data directory at a time. Crash residue is swept at open:
// orphaned temp files, checkpoints below a job's highest step, and
// blobs no index row references (a kill between a blob write and its
// index write).
package diskstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// Store implements sim.Store on a directory tree. Safe for concurrent
// use; a single mutex serializes the index and the payload writes whose
// order it decides (job persistence is off the step hot path —
// checkpoint cadence bounds how often it runs). Blob reads take no lock
// and checkpoint reads hold it for the index lookup only: a payload
// file appears whole by atomic rename and is removed only once the
// index no longer names it.
type Store struct {
	root string

	mu  sync.Mutex
	idx *sim.Index
}

// New opens (creating if needed) a disk store rooted at dir, loads its
// index from the job directories and sweeps crash residue.
func New(dir string) (*Store, error) {
	s := &Store{root: dir, idx: sim.NewIndex()}
	for _, d := range []string{s.jobsDir(), s.blobsDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	sweepTemps(s.root) // a kill mid-SaveCostModel leaves its temp at the root
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && cleanID(e.Name()) == nil {
			s.load(e.Name())
		}
	}
	s.sweepBlobs()
	return s, nil
}

// load indexes one job directory: its manifest (held when present but
// unreadable), result, artifact rows and highest-step checkpoint. An
// unreadable result degrades to none, never blocks startup.
func (s *Store) load(id string) {
	for _, d := range []string{s.jobDir(id), s.ckptDir(id), s.artDir(id)} {
		sweepTemps(d)
	}
	var m *sim.JobManifest
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "manifest.json"))
	held := err != nil && !errors.Is(err, os.ErrNotExist)
	if err == nil {
		if m = new(sim.JobManifest); json.Unmarshal(data, m) != nil || m.ID != id {
			m, held = nil, true
		}
	}
	var res *sim.Result
	if data, err := os.ReadFile(filepath.Join(s.jobDir(id), "result.json")); err == nil {
		if res = new(sim.Result); json.Unmarshal(data, res) != nil {
			res = nil
		}
	}
	s.idx.Restore(id, m, held, res, s.loadArtIndex(id))

	// The index keeps the highest step; a lower one is what a kill
	// between a save's write and its prune leaves behind.
	ckpts, _ := os.ReadDir(s.ckptDir(id))
	for _, e := range ckpts {
		fi, err := e.Info()
		if step := ckptStep(e.Name()); step >= 0 && err == nil && fi.Mode().IsRegular() {
			stale, ok := s.idx.SaveCheckpoint(id, step, fi.Size(), fi.ModTime())
			if !ok {
				stale = step
			}
			if stale >= 0 {
				os.Remove(s.ckptPath(id, stale))
			}
		}
	}
}

// sweepBlobs deletes every file in the blob tier no index row names: a
// kill between the blob write and the index write orphans the blob (the
// index write ordering guarantees the reverse — a referenced-but-missing
// blob — cannot happen), and a kill mid-write orphans its temp file.
func (s *Store) sweepBlobs() {
	shards, _ := os.ReadDir(s.blobsDir())
	for _, shard := range shards {
		dir := filepath.Join(s.blobsDir(), shard.Name())
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if e.Type().IsRegular() && s.idx.NeedsBlob(e.Name()) {
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
func (s *Store) SaveManifest(m sim.JobManifest) error {
	return s.saveJSON(m.ID, "manifest", m, func() { s.idx.SaveManifest(m) })
}

// SaveResult persists a done job's result.json.
func (s *Store) SaveResult(id string, res *sim.Result) error {
	return s.saveJSON(id, "result", res, func() { s.idx.SaveResult(id, res) })
}

// saveJSON writes v, indented, as the job's <name>.json, atomically,
// then records it in the index. The write takes no lock: per-job calls
// are sequential, and different jobs' files do not interact.
func (s *Store) saveJSON(id, name string, v any, record func()) error {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	record()
	return nil
}

// loadArtIndex reads a job's artifact index: one row per retained
// artifact, its payload in the blob tier under Hash. An absent or
// unreadable index is empty, and rows the store would not have written
// — a hand-edited or corrupt index — are dropped, so no name or hash
// read from disk reaches a path.
func (s *Store) loadArtIndex(id string) []sim.ArtifactMeta {
	var rows []sim.ArtifactMeta
	data, err := os.ReadFile(filepath.Join(s.artDir(id), indexFile))
	if err != nil || json.Unmarshal(data, &rows) != nil {
		return nil
	}
	return slices.DeleteFunc(rows, func(row sim.ArtifactMeta) bool {
		return cleanName(row.Name) != nil || cleanHash(row.Hash) != nil || row.Size < 0
	})
}

// cleanID rejects job ids that could escape the jobs directory. The
// scheduler only mints hex ids; this guards the replica endpoints, whose
// ids arrive over the wire, and any future caller.
func cleanID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return fmt.Errorf("diskstore: unsafe job id %q: %w", id, os.ErrInvalid)
	}
	return nil
}

// cleanName rejects artifact names that could escape the job directory
// or overwrite its index. The analysis layer never produces such names;
// this is defense against a future producer that does.
func cleanName(name string) error {
	if name == indexFile || cleanID(name) != nil {
		return fmt.Errorf("diskstore: unsafe artifact name %q: %w", name, os.ErrInvalid)
	}
	return nil
}

// cleanHash rejects content hashes that are not plain lowercase sha256
// hex — defense against a hash ever reaching filepath.Join.
func cleanHash(hash string) error {
	if len(hash) != 64 {
		return fmt.Errorf("diskstore: bad content hash %q: %w", hash, os.ErrInvalid)
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("diskstore: bad content hash %q: %w", hash, os.ErrInvalid)
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
	if s.idx.NeedsBlob(hash) {
		if err := writeAtomic(s.blobPath(hash), a.Data); err != nil {
			return fmt.Errorf("diskstore: blob %s: %w", hash, err)
		}
	}
	return s.commitRows(id, s.idx.SaveArtifact(id, sim.MetaOf(a, hash)))
}

// commitRows writes the job's index.json from the index, then removes
// the blobs whose last row went: a kill in between orphans blobs (swept
// at open), never leaves rows pointing at deleted payloads. s.mu must be
// held.
func (s *Store) commitRows(id string, freed []string) error {
	data, err := json.Marshal(s.idx.Rows(id))
	if err == nil {
		err = writeAtomic(filepath.Join(s.artDir(id), indexFile), append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("diskstore: artifact index %s: %w", id, err)
	}
	s.removeBlobs(freed)
	return nil
}

// removeBlobs deletes the blob files the index freed.
func (s *Store) removeBlobs(freed []string) {
	for _, h := range freed {
		os.Remove(s.blobPath(h))
	}
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

// Artifacts returns a copy of the job's index rows in production order.
func (s *Store) Artifacts(id string) ([]sim.ArtifactMeta, error) {
	if err := cleanID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.idx.Rows(id)), nil
}

// DeleteArtifacts removes the named index rows — mirroring the
// in-memory store's oldest-first eviction — and reclaims blobs no
// remaining row references.
func (s *Store) DeleteArtifacts(id string, names []string) error {
	if err := cleanID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if freed, changed := s.idx.DeleteArtifacts(id, names); changed {
		return s.commitRows(id, freed)
	}
	return nil
}

// ckptName renders the checkpoint file for a root step; the fixed-width
// numbering makes lexical order equal step order.
func ckptName(step int) string { return fmt.Sprintf("step_%08d.ckpt", step) }

// ckptStep parses a checkpoint file name back to its step (-1 when the
// name is not one ckptName renders).
func ckptStep(name string) int {
	var step int
	if _, err := fmt.Sscanf(name, "step_%d.ckpt", &step); err != nil || ckptName(step) != name {
		return -1
	}
	return step
}

// ckptPath is the checkpoint file of a job at a root step.
func (s *Store) ckptPath(id string, step int) string {
	return filepath.Join(s.ckptDir(id), ckptName(step))
}

// SaveCheckpoint writes the restart point atomically, then removes the
// one it replaces. A checkpoint below the step the job already holds is
// not written at all. The atomic write means a kill mid-write never
// tears the newest file, so no older one is kept as a fallback.
func (s *Store) SaveCheckpoint(id string, step int, data []byte) error {
	if err := cleanID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.idx.Supersedes(id, step) {
		return nil
	}
	if err := writeAtomic(s.ckptPath(id, step), data); err != nil {
		return fmt.Errorf("diskstore: checkpoint %s step %d: %w", id, step, err)
	}
	if old, _ := s.idx.SaveCheckpoint(id, step, int64(len(data)), time.Now()); old >= 0 && old != step {
		os.Remove(s.ckptPath(id, old))
	}
	return nil
}

// LatestCheckpoint loads the job's checkpoint, nil when it has none.
func (s *Store) LatestCheckpoint(id string) (*sim.Checkpoint, error) {
	if err := cleanID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	ck := s.idx.Checkpoint(id)
	s.mu.Unlock()
	if ck == nil {
		return nil, nil
	}
	data, err := os.ReadFile(s.ckptPath(id, ck.Step))
	if err != nil {
		return nil, fmt.Errorf("diskstore: checkpoint %s: %w", id, err)
	}
	ck.Data = data
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
	if err := os.RemoveAll(s.ckptDir(id)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.idx.DeleteCheckpoint(id)
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
	return s.deleteJobLocked(id)
}

// deleteJobLocked removes the job's directory first and the blobs only
// its rows named second: a kill in between orphans blobs (swept at
// open), never leaves a recoverable job whose rows name deleted
// payloads.
func (s *Store) deleteJobLocked(id string) error {
	if err := os.RemoveAll(s.jobDir(id)); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.removeBlobs(s.idx.DeleteJob(id))
	return nil
}

// Recover lists every job whose manifest the index holds, with its
// result and artifact rows, and reads no file. A job without a manifest
// (a standby's replicated bytes, a kill before the first manifest
// write) is deleted; one whose manifest was unreadable at open is kept
// and not listed. A failed delete is reported beside the recovered jobs.
func (s *Store) Recover() ([]sim.RecoveredJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, orphans := s.idx.Recover()
	var err error
	for _, id := range orphans {
		err = errors.Join(err, s.deleteJobLocked(id))
	}
	return jobs, err
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

// Stats reports the index's size gauges.
func (s *Store) Stats() sim.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Stats()
}

// Close is a no-op: every write is already durable by the time the
// call that made it returned.
func (s *Store) Close() error { return nil }

// interface check
var _ sim.Store = (*Store)(nil)
