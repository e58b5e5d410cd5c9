package gmetad

import "sync"

// The response cache's per-epoch bounds. Every daemon runs with these;
// newResponseCache takes its bounds as parameters only so tests can
// exercise eviction with small ones.
const (
	cacheMaxEntries       = 1024
	cacheMaxBytes   int64 = 16 << 20
)

// responseCache holds the rendered XML body of each distinct query key
// for the current poll epoch. One epoch is live at a time: storing a
// body from a newer epoch drops everything older, so a re-poll empties
// the cache wholesale (the §2.3.1 trade — queries are served on the
// polling time scale, never staler than one snapshot swap). Within an
// epoch the cache is bounded two ways: at most maxEntries distinct
// queries, and at most maxBytes of body data, enforced by FIFO
// eviction — the oldest rendering goes first, since a burst of viewer
// queries re-asks recent questions, not ancient ones.
//
// Soft-state ages are baked into each snapshot at publish time
// (sourceData.age), so a cached body is valid for the whole epoch; no
// wall-clock component is needed in the key.
type responseCache struct {
	mu      sync.RWMutex
	epoch   uint64
	entries map[string][]byte
	// fifo orders keys by insertion for eviction.
	fifo       []string
	bytes      int64
	maxEntries int
	maxBytes   int64
}

func newResponseCache(maxEntries int, maxBytes int64) *responseCache {
	return &responseCache{
		entries:    make(map[string][]byte),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// get returns the cached body for key if it was stored in exactly the
// caller's epoch.
func (rc *responseCache) get(epoch uint64, key string) ([]byte, bool) {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	if rc.epoch != epoch {
		return nil, false
	}
	body, ok := rc.entries[key]
	return body, ok
}

// put stores a body rendered at epoch and returns the total bytes of
// entries it evicted to make room. A body from a newer epoch resets the
// cache (an epoch turnover is invalidation, not eviction, and is not
// counted); one from an older epoch (the renderer raced a re-poll) is
// discarded — its bytes may predate the snapshot the current epoch
// promises.
func (rc *responseCache) put(epoch uint64, key string, body []byte) (evicted int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	switch {
	case epoch == rc.epoch:
	case epoch > rc.epoch:
		rc.epoch = epoch
		clear(rc.entries)
		rc.fifo = rc.fifo[:0]
		rc.bytes = 0
	default:
		return 0
	}
	if _, dup := rc.entries[key]; dup {
		// A concurrent renderer of the same query beat us; its bytes are
		// identical, keep them.
		return 0
	}
	if int64(len(body)) > rc.maxBytes {
		// A single body larger than the whole budget would evict
		// everything and still not fit; serve it uncached.
		return 0
	}
	for len(rc.fifo) > 0 &&
		(len(rc.entries) >= rc.maxEntries ||
			rc.bytes+int64(len(body)) > rc.maxBytes) {
		victim := rc.fifo[0]
		rc.fifo = rc.fifo[1:]
		evicted += int64(len(rc.entries[victim]))
		rc.bytes -= int64(len(rc.entries[victim]))
		delete(rc.entries, victim)
	}
	if len(rc.entries) >= rc.maxEntries {
		return evicted
	}
	rc.entries[key] = body
	rc.fifo = append(rc.fifo, key)
	rc.bytes += int64(len(body))
	return evicted
}

// len reports the live entry count, for tests.
func (rc *responseCache) len() int {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	return len(rc.entries)
}

// size reports the total cached body bytes, for tests.
func (rc *responseCache) size() int64 {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	return rc.bytes
}
