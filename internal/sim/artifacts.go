package sim

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
)

// ArtifactMeta is the JSON-facing description of one stored artifact —
// everything but the payload bytes. Size is always the stored (on-wire)
// byte count; for compressed products (snapshot/checkpoint payloads)
// RawSize additionally reports the raw grid-record size, so the index
// shows both sides of the compression. Hash is the payload's sha256
// content hash — the blob-store key and the artifact's strong HTTP ETag.
type ArtifactMeta struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Field       string  `json:"field,omitempty"`
	Step        int     `json:"step"`
	Time        float64 `json:"time"`
	ContentType string  `json:"content_type"`
	Size        int     `json:"size"`
	RawSize     int64   `json:"raw_size,omitempty"`
	Hash        string  `json:"content_hash,omitempty"`
}

// MetaOf builds the index row of artifact a, whose payload's content
// hash is hash.
func MetaOf(a analysis.Artifact, hash string) ArtifactMeta {
	return ArtifactMeta{
		Name:        a.Name,
		Kind:        string(a.Kind),
		Field:       a.Field,
		Step:        a.Step,
		Time:        a.Time,
		ContentType: a.ContentType,
		Size:        len(a.Data),
		RawSize:     a.RawSize,
		Hash:        hash,
	}
}

// artifactOf rebuilds the analysis.Artifact form from a metadata row
// plus its payload bytes.
func artifactOf(m ArtifactMeta, data []byte) analysis.Artifact {
	return analysis.Artifact{
		Name:        m.Name,
		Kind:        analysis.OutputKind(m.Kind),
		Field:       m.Field,
		Step:        m.Step,
		Time:        m.Time,
		ContentType: m.ContentType,
		RawSize:     m.RawSize,
		Data:        data,
	}
}

// ArtifactIndex is the GET /jobs/{id}/artifacts payload: the retained
// artifacts in production order plus the store's bookkeeping.
type ArtifactIndex struct {
	Count   int `json:"count"`
	Bytes   int `json:"bytes"`
	Dropped int `json:"dropped"` // artifacts evicted or refused by the size bound
	// Capacity is the per-job byte budget the store evicts against.
	Capacity  int            `json:"capacity"`
	Artifacts []ArtifactMeta `json:"artifacts"`
}

// ArtifactStore is a bounded, per-job collection of derived-output
// artifacts. It retains metadata rows in production order up to a byte
// and count budget; the payload bytes are read through the scheduler's
// shared content-addressed BlobCache by hash. When a new artifact
// would exceed the budget, the oldest retained artifacts are evicted
// first (a long run's trailing products win over its head). Watchers
// stream artifact-ready metadata with full replay, mirroring Job.Watch.
type ArtifactStore struct {
	mu       sync.Mutex
	blobs    *BlobCache
	maxBytes int
	maxCount int
	bytes    int
	dropped  int
	arts     []ArtifactMeta
	idx      *ArtifactIndex // cached Index snapshot; nil after any mutation
	subs     []chan ArtifactMeta
	closed   bool
}

// newArtifactStore sizes a store over the shared blob tier; budgets <= 0
// take the scheduler defaults.
func newArtifactStore(maxBytes, maxCount int, blobs *BlobCache) *ArtifactStore {
	if maxBytes <= 0 {
		maxBytes = DefaultArtifactBytes
	}
	if maxCount <= 0 {
		maxCount = DefaultArtifactCount
	}
	if blobs == nil {
		blobs = NewBlobCache(NewMemStore(), 0)
	}
	return &ArtifactStore{maxBytes: maxBytes, maxCount: maxCount, blobs: blobs}
}

// Put stores one artifact, evicting oldest-first to fit the budgets.
// It reports whether the artifact was retained at all, the payload's
// content hash when it was, and the names it evicted to make room — all
// so the scheduler's backing Store can mirror the store's contents exactly
// (a refused artifact must not be persisted, an evicted one must be
// deleted). An artifact with the name of a retained one replaces it in
// place — the path a resumed job takes when it re-derives a product it
// had already emitted before the interruption; the replacement bytes
// are bitwise identical, so position, identity, and (via the content
// hash) the ETag are preserved. An artifact larger than the whole byte
// budget is refused (counted in Dropped). Watchers are notified without
// blocking.
func (s *ArtifactStore) Put(a analysis.Artifact) (evicted []string, hash string, stored bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(a.Data) > s.maxBytes {
		s.dropped++
		s.idx = nil // the refusal shows up in Index().Dropped
		return nil, "", false
	}
	hash = s.blobs.Put(a.Data)
	return s.insertLocked(MetaOf(a, hash)), hash, true
}

// putRecovered re-registers a persisted artifact by metadata alone: the
// payload stays in the store's blob tier until a reader asks for it. The
// metadata row must carry its content hash; rows without one (a
// pre-content-addressing store) are refused.
func (s *ArtifactStore) putRecovered(m ArtifactMeta) (evicted []string, stored bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Size > s.maxBytes || m.Hash == "" {
		s.dropped++
		s.idx = nil
		return nil, false
	}
	return s.insertLocked(m), true
}

// insertLocked places a metadata row, replacing its name or evicting
// oldest rows to fit, and notifies watchers; s.mu must be held.
func (s *ArtifactStore) insertLocked(m ArtifactMeta) (evicted []string) {
	replaced := false
	for i := range s.arts {
		if s.arts[i].Name == m.Name {
			s.bytes += m.Size - s.arts[i].Size
			s.arts[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		for len(s.arts) > 0 && (s.bytes+m.Size > s.maxBytes || len(s.arts)+1 > s.maxCount) {
			s.bytes -= s.arts[0].Size
			evicted = append(evicted, s.arts[0].Name)
			s.arts[0] = ArtifactMeta{} // release the row; the backing array outlives the re-slice
			s.arts = s.arts[1:]
			s.dropped++
		}
		s.arts = append(s.arts, m)
		s.bytes += m.Size
	}
	s.idx = nil
	for _, ch := range s.subs {
		select {
		case ch <- m:
		default: // lagging subscriber: drop, never stall the job
		}
	}
	return evicted
}

// Stat returns the metadata row of the named artifact without touching
// the payload tier — the serving fast path (HEAD, If-None-Match).
func (s *ArtifactStore) Stat(name string) (ArtifactMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.arts {
		if m.Name == name {
			return m, true
		}
	}
	return ArtifactMeta{}, false
}

// Open returns the metadata row and payload bytes of the named
// artifact, fetching the payload through the blob tier (hot-tier hit or
// disk read). The bytes are shared — read-only.
func (s *ArtifactStore) Open(name string) (ArtifactMeta, []byte, error) {
	m, ok := s.Stat(name)
	if !ok {
		return m, nil, fmt.Errorf("no artifact %q", name)
	}
	data, err := s.blobs.Get(m.Hash)
	if err != nil {
		return m, nil, err
	}
	return m, data, nil
}

// Get returns the retained artifact with the given name, payload
// included (false also when the payload read fails).
func (s *ArtifactStore) Get(name string) (analysis.Artifact, bool) {
	m, data, err := s.Open(name)
	if err != nil {
		return analysis.Artifact{}, false
	}
	return artifactOf(m, data), true
}

// All returns the retained artifacts in production order, payloads
// included. The payload bytes are shared, not copied; treat them as
// read-only.
func (s *ArtifactStore) All() []analysis.Artifact {
	s.mu.Lock()
	metas := make([]ArtifactMeta, len(s.arts))
	copy(metas, s.arts)
	s.mu.Unlock()
	out := make([]analysis.Artifact, 0, len(metas))
	for _, m := range metas {
		data, err := s.blobs.Get(m.Hash)
		if err != nil {
			continue
		}
		out = append(out, artifactOf(m, data))
	}
	return out
}

// Index snapshots the store's metadata. The snapshot is cached between
// mutations, so the index endpoint — on the hot read path — costs a
// pointer copy, not a per-request rebuild; the shared Artifacts slice
// is read-only.
func (s *ArtifactStore) Index() ArtifactIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		arts := make([]ArtifactMeta, len(s.arts))
		copy(arts, s.arts)
		s.idx = &ArtifactIndex{
			Count:     len(s.arts),
			Bytes:     s.bytes,
			Dropped:   s.dropped,
			Capacity:  s.maxBytes,
			Artifacts: arts,
		}
	}
	return *s.idx
}

// Count returns the number of retained artifacts and their total bytes.
func (s *ArtifactStore) Count() (n, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.arts), s.bytes
}

// Watch subscribes to artifact-ready events: the channel first replays
// the metadata of every retained artifact, then receives one ArtifactMeta
// per new artifact (dropped, not blocked on, when the subscriber lags),
// and is closed when the job reaches a terminal state. Detach abandoned
// live subscriptions with Unwatch.
func (s *ArtifactStore) Watch() <-chan ArtifactMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan ArtifactMeta, len(s.arts)+64)
	for _, m := range s.arts {
		ch <- m
	}
	if s.closed {
		close(ch)
		return ch
	}
	s.subs = append(s.subs, ch)
	return ch
}

// Unwatch detaches a live Watch subscription and closes its channel.
// Harmless on subscriptions the store already closed.
func (s *ArtifactStore) Unwatch(ch <-chan ArtifactMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sub := range s.subs {
		if sub == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			close(sub)
			return
		}
	}
}

// close marks the store complete (its job is terminal) and closes every
// subscriber channel. Stored artifacts remain readable.
func (s *ArtifactStore) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.subs {
		close(ch)
	}
	s.subs = nil
}

// Artifact-store sizing defaults: enough for a sweep's worth of images
// or a couple of small snapshots per job without letting any one job pin
// unbounded memory.
const (
	DefaultArtifactBytes = 32 << 20
	DefaultArtifactCount = 256
)

// MaxOutputsPerRequest caps the output-request list of a single job; a
// request wanting more products should split into several jobs.
const MaxOutputsPerRequest = 16

// validateOutputs normalizes a request's output list and applies the
// service caps (stricter than the analysis-level bounds, for the same
// reason rootn is capped: one request must not be able to OOM the
// service).
func validateOutputs(reqs []analysis.OutputRequest) ([]analysis.OutputRequest, error) {
	if len(reqs) > MaxOutputsPerRequest {
		return nil, fmt.Errorf("sim: %d output requests exceeds the cap %d", len(reqs), MaxOutputsPerRequest)
	}
	out := make([]analysis.OutputRequest, len(reqs))
	for i, r := range reqs {
		n, err := r.Normalize()
		if err != nil {
			return nil, fmt.Errorf("sim: output request %d: %w", i, err)
		}
		if n.N > MaxOutputN {
			return nil, fmt.Errorf("sim: output request %d: n=%d exceeds the service cap %d", i, n.N, MaxOutputN)
		}
		if n.NSamp > MaxOutputN {
			return nil, fmt.Errorf("sim: output request %d: nsamp=%d exceeds the service cap %d", i, n.NSamp, MaxOutputN)
		}
		out[i] = n
	}
	return out, nil
}

// MaxOutputN caps image resolutions and line-of-sight sample counts of
// service jobs: a 1024² float64 image is 8 MB before encoding, already a
// quarter of the default artifact budget.
const MaxOutputN = 1024
