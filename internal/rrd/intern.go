package rrd

import (
	"strings"
	"sync"
)

// Name interning. A pool holding a million series would otherwise hold
// a million private copies of a few hundred distinct cluster, host and
// metric names ("load_one" appears once per host, every host name once
// per metric). The intern table maps every component to one shared
// canonical string, so a host row's key and its metric names are
// string headers over shared backing arrays — the storage-side half of
// making the archive store viable at the radiotelescope regime of few
// names × many samples. Names are interned when a row or series is
// created, never on a lookup, so queries for unknown names leave the
// table as it was.

// internTable deduplicates name strings. It is shared by all of a
// pool's shards: names cross shard boundaries (the same metric lives in
// many series), so the table is the one piece of pool state outside the
// shard locks, behind its own read-mostly lock.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

// intern returns the canonical copy of s, cloning on first sight: the
// argument may be a substring of a larger buffer (a key split into
// components, a name in a parsed report), and storing it verbatim
// would pin that whole buffer.
func (t *internTable) intern(s string) string {
	t.mu.RLock()
	i, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return i
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.m[s]; ok {
		return i
	}
	if t.m == nil {
		t.m = make(map[string]string)
	}
	s = strings.Clone(s)
	t.m[s] = s
	return s
}

// len returns the number of distinct interned names.
func (t *internTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// hostKey is one host row's identity: the cluster and host components
// of its series' slash keys plus their segment count, so arbitrary
// keys (including the degenerate single-segment keys unit tests use)
// round trip exactly through seriesKey. A depth-1 or depth-2 key's row
// holds one series, under the empty metric name.
type hostKey struct {
	cluster, host string
	depth         uint8
}

// splitKey decomposes a slash key into its row and metric; a key with
// more than two slashes keeps the tail in the metric.
func splitKey(key string) (k hostKey, metric string) {
	k = hostKey{cluster: key, depth: 1}
	if i := strings.IndexByte(key, '/'); i >= 0 {
		k = hostKey{cluster: key[:i], host: key[i+1:], depth: 2}
		if j := strings.IndexByte(k.host, '/'); j >= 0 {
			k.host, metric, k.depth = k.host[:j], k.host[j+1:], 3
		}
	}
	return k, metric
}

// seriesKey reassembles the slash key of the row's series metric.
func (k hostKey) seriesKey(metric string) string {
	switch k.depth {
	case 1:
		return k.cluster
	case 2:
		return k.cluster + "/" + k.host
	}
	return k.cluster + "/" + k.host + "/" + metric
}

// hash is FNV-1a over the cluster and host with separators, the shard
// selector. The metric is left out: all of a host's series share one
// shard, so one lock round trip writes the whole host, while hosts
// still spread across the shards.
func (k hostKey) hash() uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= prime
		}
		h ^= '/'
		h *= prime
	}
	mix(k.cluster)
	mix(k.host)
	h ^= uint32(k.depth)
	h *= prime
	return h
}
