package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/analysis"
)

// Store is the scheduler's pluggable persistence layer: job records (a
// small manifest written as the WAL of state transitions), terminal
// results, derived-output artifacts, restart checkpoints and the
// cost-model state. There is one contract — storetest runs the
// identical suite against every implementation — and the scheduler
// never asks which one it has. Both implementations are an Index, which
// decides every rule of the contract, plus a place where the bytes
// live; they differ only in how long the contents last:
//
//   - NewMemStore (the default) holds the bytes in maps for the life of
//     the value, so a checkpoint resumes within the process and a second
//     scheduler started on the same value recovers like a restart.
//   - diskstore.New keeps one directory per job under a data root
//     (atomic rename writes, manifest.json as the WAL) and loads its
//     Index from it once at open, so the same recovery works across a
//     process restart.
//
// Implementations must be safe for concurrent use; per-job methods are
// only ever called sequentially for a given ID by the owning slot, but
// different jobs write concurrently.
type Store interface {
	// Persistent reports whether the contents survive a process
	// restart. Reporting only (/healthz "durable", sim_store_persistent):
	// no scheduler behaviour depends on it.
	Persistent() bool
	// SaveManifest records a job-state transition. Called on every
	// lifecycle edge (queued, running, checkpoint written, interrupted,
	// done, failed, cancelled); the latest write wins.
	SaveManifest(m JobManifest) error
	// SaveResult persists a completed job's terminal result.
	SaveResult(id string, res *Result) error
	// SaveArtifact persists one derived-output artifact in production
	// order; saving a name again replaces its payload. hash is the
	// payload's content hash (HashBytes): the bytes are kept once per
	// hash in a shared blob tier, the hash in the per-job index. An ID,
	// name or hash the store cannot hold is refused with os.ErrInvalid.
	SaveArtifact(id string, a analysis.Artifact, hash string) error
	// Artifacts returns a job's artifact rows in production order (a
	// copy; empty with a nil error for an ID the store does not hold) —
	// how a takeover reads the rows a standby was sent.
	Artifacts(id string) ([]ArtifactMeta, error)
	// DeleteArtifacts forgets named artifacts of a job — the mirror of
	// ArtifactStore's oldest-first eviction. Blob payloads are reclaimed
	// when their last referencing index row goes.
	DeleteArtifacts(id string, names []string) error
	// LoadBlob reads one content-addressed payload back by its hash —
	// the hot tier's miss path.
	LoadBlob(hash string) ([]byte, error)
	// SaveCheckpoint persists checkpoint bytes for the job at the given
	// root step. Implementations retain one checkpoint per job, the
	// highest step, whatever order the writes arrive in.
	SaveCheckpoint(id string, step int, data []byte) error
	// LatestCheckpoint returns the most recent checkpoint of a job, or
	// nil when none exists.
	LatestCheckpoint(id string) (*Checkpoint, error)
	// DeleteCheckpoints drops a job's checkpoints — called once the job
	// reaches a terminal state, when they can never be resumed from.
	DeleteCheckpoints(id string) error
	// DeleteJob forgets everything about a job (cache eviction, or a
	// failed configuration being re-run fresh).
	DeleteJob(id string) error
	// Recover enumerates every persisted job for scheduler startup,
	// oldest submission first and equal submit times in ID order:
	// terminal jobs rehydrate the cache, interrupted ones are re-queued
	// to resume from their latest checkpoint. A record without a
	// manifest (a restarted standby's replicated bytes, a kill before
	// the first manifest write) is deleted, blob references included:
	// no Peer is attached yet, so nothing can name those bytes again.
	Recover() ([]RecoveredJob, error)
	// SaveCostModel persists the scheduler's serialized cost-model state
	// (an opaque blob; the latest write wins), so cost estimates survive
	// restarts alongside the results that trained them.
	SaveCostModel(state []byte) error
	// LoadCostModel returns the persisted cost-model state, or nil when
	// none was saved.
	LoadCostModel() ([]byte, error)
	// Stats reports the store's size gauges for /metrics.
	Stats() StoreStats
	// Close releases the store. The scheduler calls it from Close/Drain.
	Close() error
}

// JobManifest is the persisted record of one job — the small JSON
// document a disk store rewrites (atomically) on every state
// transition, and everything recovery needs to reconstruct the job's
// identity and provenance. Recovery re-resolves Request with its worker
// pin cleared, so a resumed run takes the recovering process's slot share
// and still reaches the interrupted run's bits (they do not depend on the
// worker count).
type JobManifest struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	// Workers records the par budget the job last ran with — provenance
	// only; recovery never reads it back.
	Workers int `json:"workers"`
	// State is the job's lifecycle phase: queued, running, interrupted,
	// done, failed or cancelled. "interrupted" marks a run the process
	// lost (kill, drain) that recovery should resume; the in-process
	// states never contain it.
	State string  `json:"state"`
	Error string  `json:"error,omitempty"`
	Steps int     `json:"steps_done"`
	Time  float64 `json:"time"` // code time reached
	// Checkpoint provenance: how many checkpoints the run has written,
	// the root step of the latest one, and when it was written.
	Checkpoints    int       `json:"checkpoints,omitempty"`
	CheckpointStep int       `json:"checkpoint_step,omitempty"`
	CheckpointAt   time.Time `json:"checkpoint_at,omitzero"`
	// ResumedFrom names the checkpoint this run resumed from, when it
	// did ("checkpoint step 12").
	ResumedFrom string `json:"resumed_from,omitempty"`
	// Speculative marks a run the speculation planner started ahead of
	// any submission. Recovery must never resurrect a non-terminal
	// speculative record as demand work — it is re-offered to the
	// planner instead (or deleted when speculation is off).
	Speculative bool      `json:"speculative,omitempty"`
	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Manifest state strings. In-memory State values map onto them via
// State.String(); ManifestInterrupted exists only in the store.
const (
	// ManifestInterrupted marks a job whose process died (or drained)
	// mid-run: recovery re-queues it to resume from its latest
	// checkpoint.
	ManifestInterrupted = "interrupted"
)

// Checkpoint is one persisted restart point: the snapshot-format bytes
// of the hierarchy after root step Step.
type Checkpoint struct {
	// Step is the 0-based global root step the checkpoint was taken
	// after; a resume continues at Step+1.
	Step int
	// Data is the snapshot.Encode payload.
	Data []byte
	// At is when the checkpoint was written.
	At time.Time
}

// RecoveredJob is one persisted job surfaced by Store.Recover.
type RecoveredJob struct {
	Manifest JobManifest
	// Result is the terminal result of a done job, nil otherwise.
	Result *Result
	// Artifacts are the retained derived-output products in production
	// order — metadata only (name, kind, size, content hash). The
	// payload bytes stay in the store's blob tier until a reader asks
	// for them, so recovery of a large artifact history is index reads,
	// not payload reads.
	Artifacts []ArtifactMeta
}

// StoreStats are the store's size gauges, exported on /metrics.
type StoreStats struct {
	// CheckpointBytes and CheckpointCount describe the restart
	// checkpoints currently held.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	CheckpointCount int   `json:"checkpoint_count"`
	// ArtifactBytes and ArtifactCount describe the persisted artifact
	// payloads as indexed per job — logical bytes, before cross-job
	// dedupe.
	ArtifactBytes int64 `json:"artifact_bytes"`
	ArtifactCount int   `json:"artifact_count"`
	// BlobBytes and BlobCount describe the physical content-addressed
	// blob tier: each distinct payload once, however many index rows
	// reference it.
	BlobBytes int64 `json:"blob_bytes"`
	BlobCount int   `json:"blob_count"`
	// DedupeBytes totals the payload bytes SaveArtifact did not write
	// again because the blob already existed (process-lifetime counter).
	DedupeBytes int64 `json:"dedupe_bytes"`
}

// ErrStore wraps persistence failures so the HTTP layer can answer 500
// (a service defect) instead of 400 (a bad request).
var ErrStore = errors.New("sim: store error")

// memStore is the in-memory Store: an Index plus the payload bytes it
// names — blobs by content hash, the latest checkpoint per job — and the
// cost-model bytes, under one mutex. Contents live as long as the value:
// Close keeps them, so a second scheduler started on the same store
// recovers what a restarted process would from disk. Payload slices are
// retained as given (shared with the blob cache, not copied); callers
// must not mutate them.
type memStore struct {
	mu    sync.Mutex
	idx   *Index
	blobs map[string][]byte
	ckpts map[string][]byte
	model []byte
}

// NewMemStore returns an empty in-memory Store — the scheduler's
// default when Config.Store is nil.
func NewMemStore() Store {
	return &memStore{idx: NewIndex(), blobs: map[string][]byte{}, ckpts: map[string][]byte{}}
}

// dropLocked forgets the payloads of blobs whose last row went.
func (s *memStore) dropLocked(freed []string) {
	for _, h := range freed {
		delete(s.blobs, h)
	}
}

func (s *memStore) Persistent() bool { return false }

func (s *memStore) SaveManifest(m JobManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.SaveManifest(m)
	return nil
}

func (s *memStore) SaveResult(id string, res *Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.SaveResult(id, res)
	return nil
}

func (s *memStore) SaveArtifact(id string, a analysis.Artifact, hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx.NeedsBlob(hash) {
		s.blobs[hash] = a.Data
	}
	s.dropLocked(s.idx.SaveArtifact(id, MetaOf(a, hash)))
	return nil
}

func (s *memStore) Artifacts(id string) ([]ArtifactMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.idx.Rows(id)), nil
}

func (s *memStore) DeleteArtifacts(id string, names []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	freed, _ := s.idx.DeleteArtifacts(id, names)
	s.dropLocked(freed)
	return nil
}

func (s *memStore) LoadBlob(hash string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.blobs[hash]; ok {
		return data, nil
	}
	return nil, fmt.Errorf("sim: memory store holds no blob %s", hash)
}

func (s *memStore) SaveCheckpoint(id string, step int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx.SaveCheckpoint(id, step, int64(len(data)), time.Now()); ok {
		s.ckpts[id] = data
	}
	return nil
}

func (s *memStore) LatestCheckpoint(id string) (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck := s.idx.Checkpoint(id)
	if ck != nil {
		ck.Data = s.ckpts[id]
	}
	return ck, nil
}

func (s *memStore) DeleteCheckpoints(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.DeleteCheckpoint(id)
	delete(s.ckpts, id)
	return nil
}

func (s *memStore) DeleteJob(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deleteJobLocked(id)
	return nil
}

// deleteJobLocked forgets a job and the payloads only it named.
func (s *memStore) deleteJobLocked(id string) {
	s.dropLocked(s.idx.DeleteJob(id))
	delete(s.ckpts, id)
}

func (s *memStore) Recover() ([]RecoveredJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, orphans := s.idx.Recover()
	for _, id := range orphans {
		s.deleteJobLocked(id)
	}
	return jobs, nil
}

func (s *memStore) SaveCostModel(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.model = state
	return nil
}

func (s *memStore) LoadCostModel() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model, nil
}

func (s *memStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Stats()
}

// Close keeps the contents: they are the next scheduler's to recover.
func (s *memStore) Close() error { return nil }
