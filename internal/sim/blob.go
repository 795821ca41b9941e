package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Content-addressed artifact payloads. Artifact bodies are keyed by the
// sha256 of their bytes: the per-job ArtifactStore holds only metadata
// rows (name → meta + hash), while the store keeps the bytes once per
// hash no matter how many jobs produced them. The shared BlobCache is a
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

// blobEntry is one resident payload and its LRU links.
type blobEntry struct {
	hash       string
	data       []byte
	prev, next *blobEntry
}

// BlobCache is the shared content-addressed payload tier: a
// byte-budgeted LRU of resident payloads over Store.LoadBlob. It owns no
// payload's lifetime — the store's refcounted index rows do — so a
// payload no retained row names simply ages out. All counters are
// served on /metrics.
type BlobCache struct {
	mu     sync.Mutex
	store  Store
	budget int64

	entries  map[string]*blobEntry // resident payloads only
	lru      blobEntry             // sentinel ring: lru.next = most recent
	hotBytes int64

	hits        int64
	misses      int64
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
	e.prev.next = e.next
	e.next.prev = e.prev
}

// lruFront moves (or inserts) e at the most-recent end.
func (c *BlobCache) lruFront(e *blobEntry) {
	if e.next != nil {
		c.lruUnlink(e)
	}
	e.next = c.lru.next
	e.prev = &c.lru
	e.next.prev = e
	c.lru.next = e
}

// insertLocked makes a payload resident, then evicts least-recently-used
// payloads until the hot tier fits the budget; c.mu must be held.
func (c *BlobCache) insertLocked(hash string, data []byte) {
	e := &blobEntry{hash: hash, data: data}
	c.entries[hash] = e
	c.hotBytes += int64(len(data))
	c.lruFront(e)
	for c.hotBytes > c.budget && c.lru.prev != &c.lru {
		e := c.lru.prev
		c.lruUnlink(e)
		delete(c.entries, e.hash)
		c.hotBytes -= int64(len(e.data))
		c.evictions++
	}
}

// Put makes a payload resident under its content hash and returns the
// hash. Bytes already resident are the dedupe win counted in
// DedupeBytes.
func (c *BlobCache) Put(data []byte) string {
	hash := HashBytes(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[hash]; ok {
		c.dedupeBytes += int64(len(data))
		c.lruFront(e)
	} else {
		c.insertLocked(hash, data)
	}
	return hash
}

// Get returns a payload: from the hot tier when resident (a hit),
// otherwise read back from the store, verified against its hash, and
// made resident (a miss). The returned bytes are shared — read-only.
func (c *BlobCache) Get(hash string) ([]byte, error) {
	c.mu.Lock()
	if e, ok := c.entries[hash]; ok {
		c.hits++
		c.lruFront(e)
		c.mu.Unlock()
		return e.data, nil
	}
	c.misses++
	c.mu.Unlock()
	// Read outside the lock: a cold read is store + checksum work and must
	// not serialize the whole tier. Concurrent misses on one hash may read
	// twice; both verify, and the first insert wins harmlessly.
	data, err := c.store.LoadBlob(hash)
	if err != nil {
		return nil, err
	}
	if HashBytes(data) != hash {
		return nil, fmt.Errorf("sim: blob %s failed content verification", hash)
	}
	c.mu.Lock()
	if _, ok := c.entries[hash]; !ok {
		c.insertLocked(hash, data)
	}
	c.mu.Unlock()
	return data, nil
}

// BlobCacheStats is the hot tier's counter snapshot.
type BlobCacheStats struct {
	// Hits and Misses count Get calls served from resident bytes vs the
	// store; every miss is one store read.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts payloads pushed out of the hot tier by the byte
	// budget.
	Evictions int64 `json:"evictions"`
	// DedupeBytes totals the payload bytes Put found already resident.
	DedupeBytes int64 `json:"dedupe_bytes"`
	// HotBytes/HotCount gauge the resident payloads.
	HotBytes int64 `json:"hot_bytes"`
	HotCount int   `json:"hot_count"`
}

// Stats snapshots the cache counters.
func (c *BlobCache) Stats() BlobCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BlobCacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		DedupeBytes: c.dedupeBytes,
		HotBytes:    c.hotBytes,
		HotCount:    len(c.entries),
	}
}
