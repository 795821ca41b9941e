package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Content-addressed artifact payloads. Artifact bodies are keyed by the
// sha256 of their bytes: the per-job ArtifactStore holds only metadata
// rows (name → meta + hash), while the bytes live once in a shared
// BlobCache no matter how many jobs produced them. The cache is a
// byte-budgeted LRU hot tier over the store's blobs: whatever it evicts
// is read back through Store.LoadBlob.

// HashBytes returns the hex sha256 content hash of a payload — the
// blob key and the artifact's strong HTTP ETag.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// DefaultHotTierBytes is the default byte budget of the in-memory blob
// hot tier fronting the store.
const DefaultHotTierBytes = 64 << 20

// blobEntry is one referenced content hash: its refcount, size, and —
// while resident in the hot tier — the payload bytes plus its LRU links.
type blobEntry struct {
	hash       string
	size       int64
	refs       int
	data       []byte // nil when evicted to the store
	prev, next *blobEntry
}

// BlobCache is the shared content-addressed payload tier. Entries are
// refcounted by the artifact metadata rows pointing at them; resident
// bytes are bounded by the budget with least-recently-used eviction.
// All counters are served on /metrics.
type BlobCache struct {
	mu     sync.Mutex
	store  Store
	budget int64

	entries  map[string]*blobEntry
	lru      blobEntry // sentinel ring: lru.next = most recent
	hotBytes int64
	hotCount int

	hits        int64
	misses      int64
	diskReads   int64
	evictions   int64
	dedupeBytes int64
}

// NewBlobCache builds the payload tier over a store. budget <= 0 takes
// DefaultHotTierBytes.
func NewBlobCache(store Store, budget int64) *BlobCache {
	if budget <= 0 {
		budget = DefaultHotTierBytes
	}
	c := &BlobCache{
		store:   store,
		budget:  budget,
		entries: make(map[string]*blobEntry),
	}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// lruUnlink removes e from the recency ring.
func (c *BlobCache) lruUnlink(e *blobEntry) {
	if e.next == nil {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next, e.prev = nil, nil
}

// lruFront moves (or inserts) e at the most-recent end.
func (c *BlobCache) lruFront(e *blobEntry) {
	c.lruUnlink(e)
	e.next = c.lru.next
	e.prev = &c.lru
	e.next.prev = e
	c.lru.next = e
}

// resident marks e's payload bytes as in the hot tier.
func (c *BlobCache) resident(e *blobEntry, data []byte) {
	if e.data == nil {
		c.hotBytes += e.size
		c.hotCount++
	}
	e.data = data
	c.lruFront(e)
	c.enforceBudget()
}

// enforceBudget evicts least-recently-used resident payloads until the
// hot tier fits the budget.
func (c *BlobCache) enforceBudget() {
	for c.hotBytes > c.budget && c.lru.prev != &c.lru {
		e := c.lru.prev
		c.lruUnlink(e)
		e.data = nil
		c.hotBytes -= e.size
		c.hotCount--
		c.evictions++
	}
}

// Acquire references a payload under its content hash, making it
// resident, and returns the hash. A second acquisition of bytes already
// referenced is the dedupe win counted in DedupeBytes.
func (c *BlobCache) Acquire(data []byte) string {
	hash := HashBytes(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		e = &blobEntry{hash: hash, size: int64(len(data))}
		c.entries[hash] = e
	} else {
		c.dedupeBytes += int64(len(data))
	}
	e.refs++
	c.resident(e, data)
	return hash
}

// AcquireRef references a content hash without its bytes — the recovery
// path, where payloads stay in the store until a reader asks for them.
func (c *BlobCache) AcquireRef(hash string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		e = &blobEntry{hash: hash, size: size}
		c.entries[hash] = e
	}
	e.refs++
}

// Release drops one reference; the last release forgets the entry and
// frees any resident bytes (the store's copy is the store's to
// reclaim).
func (c *BlobCache) Release(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	if !ok {
		return
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.data != nil {
		c.hotBytes -= e.size
		c.hotCount--
	}
	c.lruUnlink(e)
	delete(c.entries, hash)
}

// Get returns a referenced payload: from the hot tier when resident (a
// hit), otherwise read back from the store, verified against
// its hash, and made resident (a miss). The returned bytes are shared —
// read-only.
func (c *BlobCache) Get(hash string) ([]byte, error) {
	c.mu.Lock()
	e, ok := c.entries[hash]
	if ok && e.data != nil {
		c.hits++
		c.lruFront(e)
		data := e.data
		c.mu.Unlock()
		return data, nil
	}
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("sim: blob %s is not referenced", hash)
	}
	c.misses++
	c.diskReads++
	c.mu.Unlock()
	// Read outside the lock: a cold read is store + checksum work and must
	// not serialize the whole tier. Concurrent misses on one hash may read
	// twice; both verify, the later insert wins harmlessly.
	data, err := c.store.LoadBlob(hash)
	if err != nil {
		return nil, err
	}
	if HashBytes(data) != hash {
		return nil, fmt.Errorf("sim: blob %s failed content verification", hash)
	}
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		e.size = int64(len(data))
		c.resident(e, data)
	}
	c.mu.Unlock()
	return data, nil
}

// Contains reports whether the hash is resident in the hot tier without
// touching recency or counters (used by tests and the 304 fast path
// assertions).
func (c *BlobCache) Contains(hash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[hash]
	return ok && e.data != nil
}

// BlobCacheStats is the hot tier's counter snapshot.
type BlobCacheStats struct {
	// Hits and Misses count Get calls served from resident bytes vs the
	// store; DiskReads counts the store reads misses issued.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	DiskReads int64 `json:"disk_reads"`
	// Evictions counts payloads pushed out of the hot tier by the byte
	// budget.
	Evictions int64 `json:"evictions"`
	// DedupeBytes totals the payload bytes that were NOT stored again
	// because an identical blob was already referenced.
	DedupeBytes int64 `json:"dedupe_bytes"`
	// HotBytes/HotCount gauge the resident payloads; RefCount gauges the
	// distinct referenced hashes (resident or not).
	HotBytes int64 `json:"hot_bytes"`
	HotCount int   `json:"hot_count"`
	RefCount int   `json:"ref_count"`
}

// Stats snapshots the cache counters.
func (c *BlobCache) Stats() BlobCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BlobCacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		DiskReads:   c.diskReads,
		Evictions:   c.evictions,
		DedupeBytes: c.dedupeBytes,
		HotBytes:    c.hotBytes,
		HotCount:    c.hotCount,
		RefCount:    len(c.entries),
	}
}
