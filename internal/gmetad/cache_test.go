package gmetad

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"ganglia/internal/query"
)

func TestCacheByteBoundFIFO(t *testing.T) {
	rc := newResponseCache(100, 100)
	body := bytes.Repeat([]byte("x"), 40)

	if ev := rc.put(1, "a", body); ev != 0 {
		t.Fatalf("first put evicted %d bytes", ev)
	}
	if ev := rc.put(1, "b", body); ev != 0 {
		t.Fatalf("second put evicted %d bytes", ev)
	}
	if rc.size() != 80 || rc.len() != 2 {
		t.Fatalf("size=%d len=%d", rc.size(), rc.len())
	}
	// 80 + 40 > 100: the oldest entry ("a") must go, and its bytes are
	// reported as evicted.
	if ev := rc.put(1, "c", body); ev != 40 {
		t.Fatalf("third put evicted %d bytes, want 40", ev)
	}
	if _, ok := rc.get(1, "a"); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := rc.get(1, k); !ok {
			t.Errorf("entry %s lost", k)
		}
	}
	if rc.size() != 80 || rc.len() != 2 {
		t.Errorf("after eviction: size=%d len=%d", rc.size(), rc.len())
	}
}

func TestCacheEpochTurnoverNotCountedAsEviction(t *testing.T) {
	rc := newResponseCache(100, 1000)
	rc.put(1, "a", []byte(strings.Repeat("x", 500)))
	// A newer epoch wipes the cache, but that is invalidation — the
	// bytes counter used for the CacheEvictedBytes metric must not move.
	if ev := rc.put(2, "b", []byte("y")); ev != 0 {
		t.Errorf("epoch turnover counted %d evicted bytes", ev)
	}
	if _, ok := rc.get(2, "a"); ok {
		t.Error("entry from withdrawn epoch served")
	}
	if _, ok := rc.get(1, "a"); ok {
		t.Error("get at stale epoch served")
	}
}

func TestCacheStaleEpochPutDiscarded(t *testing.T) {
	rc := newResponseCache(100, 1000)
	rc.put(5, "a", []byte("current"))
	// A renderer that raced a re-poll finishes late with an old body;
	// storing it would break the epoch promise.
	if ev := rc.put(4, "a", []byte("stale")); ev != 0 {
		t.Errorf("stale put evicted %d", ev)
	}
	got, ok := rc.get(5, "a")
	if !ok || string(got) != "current" {
		t.Errorf("current entry = %q, %v", got, ok)
	}
	if rc.len() != 1 {
		t.Errorf("len = %d", rc.len())
	}
}

func TestCacheOversizedBodyUncached(t *testing.T) {
	rc := newResponseCache(100, 50)
	rc.put(1, "small", []byte("tiny"))
	// A body larger than the entire budget must not evict everything
	// only to still not fit.
	if ev := rc.put(1, "huge", bytes.Repeat([]byte("x"), 51)); ev != 0 {
		t.Errorf("oversized put evicted %d bytes", ev)
	}
	if _, ok := rc.get(1, "huge"); ok {
		t.Error("oversized body cached")
	}
	if _, ok := rc.get(1, "small"); !ok {
		t.Error("small entry evicted by oversized body")
	}
}

func TestCacheDuplicatePutKeepsExisting(t *testing.T) {
	rc := newResponseCache(100, 1000)
	rc.put(1, "a", []byte("first"))
	if ev := rc.put(1, "a", []byte("second")); ev != 0 {
		t.Errorf("dup put evicted %d", ev)
	}
	if got, _ := rc.get(1, "a"); string(got) != "first" {
		t.Errorf("dup put replaced body: %q", got)
	}
	if rc.size() != int64(len("first")) {
		t.Errorf("size = %d", rc.size())
	}
}

func TestCacheEntryBoundStillHolds(t *testing.T) {
	rc := newResponseCache(3, cacheMaxBytes) // the byte bound never binds
	for i := 0; i < 5; i++ {
		rc.put(1, fmt.Sprintf("k%d", i), []byte("body"))
	}
	if rc.len() != 3 {
		t.Errorf("len = %d, want 3", rc.len())
	}
	// FIFO: the two oldest are gone.
	for _, k := range []string{"k0", "k1"} {
		if _, ok := rc.get(1, k); ok {
			t.Errorf("%s survived entry-bound eviction", k)
		}
	}
	for _, k := range []string{"k2", "k3", "k4"} {
		if _, ok := rc.get(1, k); !ok {
			t.Errorf("%s missing", k)
		}
	}
}

// TestCacheEvictedBytesAccounted proves the serve path surfaces put()'s
// eviction count in the accounting snapshot.
func TestCacheEvictedBytesAccounted(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 12, 1)
	src := []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}}

	// Measure one metric-level body, then bound the cache so one such
	// body fits but two cannot coexist.
	g := r.gmetad(Config{GridName: "SDSC", Sources: src}, "")
	g.PollOnce(r.clk.Now())
	body, err := g.renderBody(query.MustParse("/meteor/compute-meteor-0/load_one"))
	if err != nil {
		t.Fatal(err)
	}
	g.cache = newResponseCache(64, int64(len(body))+int64(len(body))/2)

	for _, q := range []string{
		"/meteor/compute-meteor-0/load_one",
		"/meteor/compute-meteor-1/load_one",
		"/meteor/compute-meteor-2/load_one",
	} {
		if err := g.WriteAnswer(io.Discard, query.MustParse(q)); err != nil {
			t.Fatal(err)
		}
	}
	if ev := g.Accounting().Snapshot().CacheEvictedBytes; ev <= 0 {
		t.Errorf("CacheEvictedBytes = %d, want > 0", ev)
	}
}
