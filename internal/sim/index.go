package sim

import (
	"cmp"
	"slices"
	"time"
)

// Index is the bookkeeping every Store keeps and the one place the
// contract's rules are decided: per job the manifest, result, artifact
// rows in production order and latest checkpoint; across jobs the blob
// refcounts and sizes and the dedupe counter. Its methods tell the
// caller which payloads to write or delete and leave the bytes to the
// store. An Index has no lock; the store that owns it serializes calls.
type Index struct {
	jobs   map[string]*indexJob
	blobs  map[string]*blobRef
	dedupe int64
}

// indexJob is one job's record. manifest is nil for IDs that only ever
// received artifacts or checkpoints (a standby peer's replicas); held
// marks a manifest that exists but could not be read.
type indexJob struct {
	manifest *JobManifest
	held     bool
	result   *Result
	arts     []ArtifactMeta
	ckpt     *Checkpoint // Step and At only; the store holds the bytes
	ckptSize int64
}

// blobRef is one content-addressed payload's size and the rows naming it.
type blobRef struct {
	size int64
	refs int
}

// NewIndex returns an empty Index.
func NewIndex() *Index {
	return &Index{jobs: map[string]*indexJob{}, blobs: map[string]*blobRef{}}
}

// job returns the record for id, creating it on first write.
func (x *Index) job(id string) *indexJob {
	j := x.jobs[id]
	if j == nil {
		j = &indexJob{}
		x.jobs[id] = j
	}
	return j
}

// ref references row's blob, reporting whether it was already held.
func (x *Index) ref(row ArtifactMeta) bool {
	if b := x.blobs[row.Hash]; b != nil {
		b.refs++
		return true
	}
	x.blobs[row.Hash] = &blobRef{size: int64(row.Size), refs: 1}
	return false
}

// unref drops one reference to a blob, appending it to freed with the last.
func (x *Index) unref(hash string, freed []string) []string {
	b := x.blobs[hash]
	if b.refs--; b.refs > 0 {
		return freed
	}
	delete(x.blobs, hash)
	return append(freed, hash)
}

// Restore records a job as a store found it when opening; its rows
// reference their blobs but count no dedupe.
func (x *Index) Restore(id string, m *JobManifest, held bool, res *Result, rows []ArtifactMeta) {
	j := x.job(id)
	j.manifest, j.held, j.result = m, held, res
	for _, row := range rows {
		x.ref(row)
		j.arts = append(j.arts, row)
	}
}

// SaveManifest records a job-state transition; the latest write wins.
func (x *Index) SaveManifest(m JobManifest) {
	j := x.job(m.ID)
	j.manifest, j.held = &m, false
}

// SaveResult records a completed job's terminal result.
func (x *Index) SaveResult(id string, res *Result) { x.job(id).result = res }

// NeedsBlob reports whether no row names hash: a save must write the bytes.
func (x *Index) NeedsBlob(hash string) bool { return x.blobs[hash] == nil }

// SaveArtifact appends the job's row, or replaces the row of the same
// name in place, and references its blob; a payload already held counts
// toward the dedupe. It returns the replaced row's hash when that was
// its last reference.
func (x *Index) SaveArtifact(id string, row ArtifactMeta) (freed []string) {
	if x.ref(row) {
		x.dedupe += int64(row.Size)
	}
	j := x.job(id)
	for i := range j.arts {
		if j.arts[i].Name == row.Name {
			old := j.arts[i].Hash
			j.arts[i] = row
			return x.unref(old, nil)
		}
	}
	j.arts = append(j.arts, row)
	return nil
}

// Rows returns the job's artifact rows (the index's own slice).
func (x *Index) Rows(id string) []ArtifactMeta {
	if j := x.jobs[id]; j != nil {
		return j.arts
	}
	return nil
}

// DeleteArtifacts drops the job's named rows, reporting whether any went
// and the hashes whose last reference did.
func (x *Index) DeleteArtifacts(id string, names []string) (freed []string, changed bool) {
	j := x.jobs[id]
	if j == nil {
		return nil, false
	}
	n := len(j.arts)
	j.arts = slices.DeleteFunc(j.arts, func(row ArtifactMeta) bool {
		doomed := slices.Contains(names, row.Name)
		if doomed {
			freed = x.unref(row.Hash, freed)
		}
		return doomed
	})
	return freed, len(j.arts) < n
}

// Supersedes reports whether a checkpoint at step would be the job's
// latest: the highest step wins, and the held step may be rewritten.
func (x *Index) Supersedes(id string, step int) bool {
	j := x.jobs[id]
	return j == nil || j.ckpt == nil || step >= j.ckpt.Step
}

// SaveCheckpoint records the job's checkpoint at step unless Supersedes
// refuses it, returning whether it was recorded and the step of the one
// it replaced (-1 when none).
func (x *Index) SaveCheckpoint(id string, step int, size int64, at time.Time) (replaced int, ok bool) {
	if !x.Supersedes(id, step) {
		return -1, false
	}
	j, replaced := x.job(id), -1
	if j.ckpt != nil {
		replaced = j.ckpt.Step
	}
	j.ckpt, j.ckptSize = &Checkpoint{Step: step, At: at}, size
	return replaced, true
}

// Checkpoint returns the job's checkpoint without Data, nil when none.
func (x *Index) Checkpoint(id string) *Checkpoint {
	if j := x.jobs[id]; j != nil && j.ckpt != nil {
		return &Checkpoint{Step: j.ckpt.Step, At: j.ckpt.At}
	}
	return nil
}

// DeleteCheckpoint forgets the job's checkpoint.
func (x *Index) DeleteCheckpoint(id string) {
	if j := x.jobs[id]; j != nil {
		j.ckpt = nil
	}
}

// DeleteJob forgets the job, returning the hashes only its rows named.
func (x *Index) DeleteJob(id string) (freed []string) {
	j := x.jobs[id]
	if j == nil {
		return nil
	}
	for _, row := range j.arts {
		freed = x.unref(row.Hash, freed)
	}
	delete(x.jobs, id)
	return freed
}

// Recover lists every job with a manifest, oldest submission first and
// equal submit times in ID order, and returns the manifest-less IDs for
// the store to delete (see Store.Recover). Held jobs are in neither.
func (x *Index) Recover() (jobs []RecoveredJob, orphans []string) {
	for id, j := range x.jobs {
		switch {
		case j.manifest != nil:
			jobs = append(jobs, RecoveredJob{Manifest: *j.manifest, Result: j.result, Artifacts: slices.Clone(j.arts)})
		case !j.held:
			orphans = append(orphans, id)
		}
	}
	slices.SortFunc(jobs, func(a, b RecoveredJob) int {
		return submitOrder(a.Manifest.SubmittedAt, a.Manifest.ID, b.Manifest.SubmittedAt, b.Manifest.ID)
	})
	return jobs, orphans
}

// submitOrder compares two jobs by submit time, equal times by ID: the
// order Recover lists jobs in, a takeover re-admits them in, and GET
// /jobs pages through.
func submitOrder(aAt time.Time, aID string, bAt time.Time, bID string) int {
	return cmp.Or(aAt.Compare(bAt), cmp.Compare(aID, bID))
}

// Stats reports the size gauges of what the index holds.
func (x *Index) Stats() StoreStats {
	st := StoreStats{DedupeBytes: x.dedupe, BlobCount: len(x.blobs)}
	for _, j := range x.jobs {
		if j.ckpt != nil {
			st.CheckpointCount++
			st.CheckpointBytes += j.ckptSize
		}
		st.ArtifactCount += len(j.arts)
		for _, row := range j.arts {
			st.ArtifactBytes += int64(row.Size)
		}
	}
	for _, b := range x.blobs {
		st.BlobBytes += b.size
	}
	return st
}
