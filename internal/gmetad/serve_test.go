package gmetad

import (
	"io"
	"strings"
	"testing"
	"time"

	"ganglia/internal/query"
)

// askRaw sends one query line and returns the raw response bytes,
// error comments included.
func (r *rig) askRaw(addr, q string) (string, error) {
	conn, err := r.net.Dial(addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, q+"\n"); err != nil {
		return "", err
	}
	data, err := io.ReadAll(conn)
	return string(data), err
}

func TestXMLCommentSafe(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"", ""},
		{"plain error text", "plain error text"},
		{"-", "-"},
		{"--", "-"},
		{"---", "-"},
		{"--->", "->"},
		{"a--b", "a-b"},
		{"a----b", "a-b"},
		{"-a-b-", "-a-b-"},
		{"bad query: /x--y--", "bad query: /x-y-"},
		// Multi-byte input passes through untouched: no byte of a
		// UTF-8 sequence is 0x2D.
		{"métrique 不明 ‐‐", "métrique 不明 ‐‐"},
		{"日本--語", "日本-語"},
	}
	for _, tc := range tests {
		if got := xmlCommentSafe(tc.in); got != tc.want {
			t.Errorf("xmlCommentSafe(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if strings.Contains(xmlCommentSafe(tc.in), "--") {
			t.Errorf("xmlCommentSafe(%q) still contains --", tc.in)
		}
	}
}

// TestStalledClientDisconnected is the regression test for the silent
// client that connects to the query port and never sends its line: the
// read deadline must disconnect it, freeing the serve goroutine so
// Close does not hang on it.
func TestStalledClientDisconnected(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName:         "SDSC",
		QueryReadTimeout: 50 * time.Millisecond,
		Sources:          []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	conn, err := r.net.Dial("sdsc:8652")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on us.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled client was served data instead of disconnected")
	}

	// The handler goroutine must be gone: Close waits for all serve
	// goroutines, so a pinned handler would hang it forever.
	done := make(chan struct{})
	go func() {
		g.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: the stalled client pinned a serve goroutine")
	}
}

// TestWriteDeadlineDisconnectsStalledReader covers the other half of a
// silent client: one that sends its query but never reads the answer.
func TestWriteDeadlineDisconnectsStalledReader(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 20, 1)
	g := r.gmetad(Config{
		GridName:     "SDSC",
		WriteTimeout: 50 * time.Millisecond,
		Sources:      []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	conn, err := r.net.Dial("sdsc:8652")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "/meteor\n"); err != nil {
		t.Fatal(err)
	}
	// Never read. The in-memory pipe is unbuffered, so the response
	// write blocks until the deadline fires and the handler exits.
	done := make(chan struct{})
	go func() {
		g.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: a client that stopped reading pinned a serve goroutine")
	}
}

func TestMaxConnsRejectsExcess(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName:         "SDSC",
		MaxConns:         1,
		QueryReadTimeout: 5 * time.Second,
		Sources:          []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	// Occupy the only slot with a client that stays silent.
	hold, err := r.net.Dial("sdsc:8652")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let its handler take the slot

	// The over-limit connection is rejected before any query line is
	// read, so just listen for the server's verdict.
	over, err := r.net.Dial("sdsc:8652")
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, _ := io.ReadAll(over)
	if !strings.Contains(string(data), "busy") {
		t.Fatalf("over-limit connection got %q, want busy rejection", data)
	}
	if got := g.Accounting().Snapshot().RejectedConns; got == 0 {
		t.Error("RejectedConns not accounted")
	}

	// Releasing the slot restores service.
	hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := r.askRaw("sdsc:8652", "/meteor")
		if err == nil && strings.Contains(out, "<CLUSTER") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered after slot release; last response %q (%v)", out, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResponseCacheHitsAndInvalidation(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 5, 1)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	first, err := r.askRaw("sdsc:8652", "/meteor")
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Accounting().Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != 0 {
		t.Fatalf("after first query: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}

	// A repeat is served from the cache, byte-identical.
	second, err := r.askRaw("sdsc:8652", "/meteor")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("cached response differs from rendered response")
	}
	// An equivalent spelling shares the canonical key.
	if _, err := r.askRaw("sdsc:8652", "/meteor/"); err != nil {
		t.Fatal(err)
	}
	snap = g.Accounting().Snapshot()
	if snap.CacheHits != 2 || snap.CacheMisses != 1 {
		t.Fatalf("after repeats: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}

	// A re-poll bumps the epoch and retires every entry.
	epoch := g.Epoch()
	r.clk.Advance(15 * time.Second)
	g.PollOnce(r.clk.Now())
	if g.Epoch() <= epoch {
		t.Fatalf("epoch did not advance across a poll: %d -> %d", epoch, g.Epoch())
	}
	refreshed, err := r.askRaw("sdsc:8652", "/meteor")
	if err != nil {
		t.Fatal(err)
	}
	if refreshed == first {
		t.Error("post-poll response identical to pre-poll cache entry")
	}
	snap = g.Accounting().Snapshot()
	if snap.CacheMisses != 2 {
		t.Errorf("re-poll did not invalidate: misses=%d", snap.CacheMisses)
	}

	// Advancing the clock without polling does NOT invalidate: soft-state
	// ages are baked into the snapshot at publish time, so a cached body
	// stays valid for the whole poll epoch. (Before the zero-copy
	// pipeline, TN aging happened at render time and the cache had to
	// turn over every wall second.)
	r.clk.Advance(10 * time.Second)
	if _, err := r.askRaw("sdsc:8652", "/meteor"); err != nil {
		t.Fatal(err)
	}
	if snap = g.Accounting().Snapshot(); snap.CacheMisses != 2 || snap.CacheHits != 3 {
		t.Errorf("clock advance without a poll should hit: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
}

// TestResponseCacheForcedMisses: the cache cannot be switched off, so a
// cold answer over the wire is had by bumping the epoch before each
// query, the same invalidation a poll performs. Every such answer is
// accounted as a miss and re-renders the same bytes, since the
// snapshots behind it did not change.
func TestResponseCacheForcedMisses(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 5, 1)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	var first string
	for i := 0; i < 3; i++ {
		g.bumpEpoch()
		out, err := r.askRaw("sdsc:8652", "/meteor")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Errorf("forced miss %d rendered different bytes", i)
		}
	}
	snap := g.Accounting().Snapshot()
	if snap.CacheHits != 0 || snap.CacheMisses != 3 {
		t.Errorf("forced misses: hits=%d misses=%d; want 0 hits, 3 misses", snap.CacheHits, snap.CacheMisses)
	}
	if snap.Queries != 3 {
		t.Errorf("queries = %d", snap.Queries)
	}
}

// TestHistoryQueriesBypassCache: history answers read the mutable
// archive pool, which the epoch does not version.
func TestHistoryQueriesBypassCache(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName:    "SDSC",
		Archive:     true,
		ArchiveSpec: smallArchive(),
		Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	for i := 0; i < 3; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	q := "/meteor/compute-meteor-0/load_one?filter=history"
	if _, err := r.askRaw("sdsc:8652", q); err != nil {
		t.Fatal(err)
	}
	if _, err := r.askRaw("sdsc:8652", q); err != nil {
		t.Fatal(err)
	}
	snap := g.Accounting().Snapshot()
	if snap.CacheHits != 0 || snap.CacheMisses != 0 {
		t.Errorf("history queries touched the cache: hits=%d misses=%d", snap.CacheHits, snap.CacheMisses)
	}
}

func TestQueryKeyCanonical(t *testing.T) {
	spellings := []string{"/meteor", "/meteor/", "  /meteor\n", "/meteor//"}
	want := query.MustParse("/meteor").Key()
	for _, s := range spellings {
		q, err := query.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if q.Key() != want {
			t.Errorf("Key(%q) = %q, want %q", s, q.Key(), want)
		}
	}
	if query.MustParse("/meteor?filter=summary").Key() == want {
		t.Error("filter not part of the cache key")
	}
}
