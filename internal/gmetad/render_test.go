package gmetad

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/pseudo"
	"ganglia/internal/query"
	"ganglia/internal/transport"
)

// renderGolden renders q through the zero-copy pipeline (header, body,
// footer — exactly what a connection receives).
func renderGolden(t *testing.T, g *Gmetad, q string) (string, error) {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var buf bytes.Buffer
	if err := g.writeAnswer(&buf, pq); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// renderReference renders q through the DOM reference pipeline.
func renderReference(t *testing.T, g *Gmetad, q string) (string, error) {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	rep, err := g.ReferenceReport(pq)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if g.cfg.EmitDTD {
		err = gxml.WriteReportWithDTD(&buf, rep)
	} else {
		err = gxml.WriteReport(&buf, rep)
	}
	if err != nil {
		return "", err
	}
	return buf.String(), nil
}

// goldenCorpus is the query set the two pipelines are proven identical
// over: every depth, both filters, literal and regex segments, error
// paths included.
func goldenCorpus(host string) []string {
	return []string{
		"/",
		"/?filter=summary",
		"/meteor",
		"/meteor/",
		"/meteor?filter=summary",
		"/nashi",
		"/sdsc",
		"/sdsc?filter=summary",
		"/meteor/" + host,
		"/meteor/" + host + "/load_one",
		"/meteor/" + host + "/~^load_",
		"/meteor/~compute-meteor-[0-3]$",
		"/meteor/~compute-meteor-[0-3]$/load_one",
		"/meteor/~.*/cpu_num",
		"/~met.*",
		"/~met.*?filter=summary",
		"/~.*",
		"/~.*?filter=summary",
		"/~nomatch.*",                 // regex matching nothing: error
		"/absent",                     // unknown source: error
		"/meteor/absent",              // unknown host: error
		"/meteor/" + host + "/absent", // unknown metric: error
		"/meteor/~zzz.*",              // regex host matching nothing: error
		"/~^sds",                      // prefix-matches the child grid only
	}
}

// assertPipelinesAgree drives every corpus query through both pipelines
// and requires byte-identical successes and equally-failing errors.
func assertPipelinesAgree(t *testing.T, g *Gmetad, host, label string) {
	t.Helper()
	for _, q := range goldenCorpus(host) {
		want, refErr := renderReference(t, g, q)
		got, newErr := renderGolden(t, g, q)
		if (refErr == nil) != (newErr == nil) {
			t.Errorf("%s %q: reference err=%v, streaming err=%v", label, q, refErr, newErr)
			continue
		}
		if refErr != nil {
			if !errors.Is(newErr, ErrNotFound) || !errors.Is(refErr, ErrNotFound) {
				t.Errorf("%s %q: non-NotFound errors: ref=%v new=%v", label, q, refErr, newErr)
			}
			continue
		}
		if got != want {
			t.Errorf("%s %q: streaming output differs from reference\nstreaming:\n%s\nreference:\n%s",
				label, q, excerptDiff(got, want), excerptDiff(want, got))
		}
	}
}

// excerptDiff returns the region of a around its first divergence from b.
func excerptDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return fmt.Sprintf("...divergence at byte %d: %q", i, a[start:end])
}

// buildRenderRig assembles the federation the corpus runs against: two
// local gmond clusters plus a child gmetad (itself holding a cluster),
// so depth-0 responses mix CLUSTER and GRID elements and /sdsc
// exercises the grid paths of both modes.
func buildRenderRig(t *testing.T, mode Mode, emitDTD bool) (*rig, *Gmetad, string) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 6, 1)
	r.cluster("nashi", "nashi:8649", 4, 2)
	r.cluster("presto", "presto:8649", 3, 3)
	child := r.gmetad(Config{
		GridName:  "sdsc",
		Authority: "http://sdsc/",
		Mode:      mode,
		Sources:   []DataSource{{Name: "presto", Kind: SourceGmond, Addrs: []string{"presto:8649"}}},
	}, "sdsc:8652")
	g := r.gmetad(Config{
		GridName:  "root",
		Authority: "http://root/",
		Mode:      mode,
		EmitDTD:   emitDTD,
		Sources: []DataSource{
			{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}},
			{Name: "nashi", Kind: SourceGmond, Addrs: []string{"nashi:8649"}},
			{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}},
		},
	}, "root:8652")
	child.PollOnce(r.clk.Now())
	g.PollOnce(r.clk.Now())
	host := "compute-meteor-1"
	return r, g, host
}

func TestRenderMatchesReference(t *testing.T) {
	for _, mode := range []Mode{NLevel, OneLevel} {
		t.Run(mode.String(), func(t *testing.T) {
			_, g, host := buildRenderRig(t, mode, false)
			assertPipelinesAgree(t, g, host, mode.String())
		})
	}
}

func TestRenderMatchesReferenceWithDTD(t *testing.T) {
	_, g, host := buildRenderRig(t, NLevel, true)
	assertPipelinesAgree(t, g, host, "dtd")
}

// TestRenderMatchesReferenceAfterFailureAging re-ages a source through
// failed rounds and requires the pipelines to stay identical on the
// re-published (aged) snapshots.
func TestRenderMatchesReferenceAfterFailureAging(t *testing.T) {
	r, g, host := buildRenderRig(t, NLevel, false)
	r.net.Fail("meteor:8649")
	for i := 0; i < 3; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	assertPipelinesAgree(t, g, host, "aged")
}

// TestRenderUnbuiltFragments runs the corpus against a daemon whose
// fragments were never built: fresh and re-aged snapshots nobody read.
// The corpus's first reader of each snapshot builds its fragment — once
// per slot, whatever the number of answers splicing it — and every
// answer still matches the reference.
func TestRenderUnbuiltFragments(t *testing.T) {
	r, g, host := buildRenderRig(t, NLevel, false)
	r.net.Fail("nashi:8649")
	r.clk.Advance(15 * time.Second)
	g.PollOnce(r.clk.Now())
	if n := g.Accounting().Snapshot().FragmentRenders; n != 0 {
		t.Fatalf("%d fragments rendered before any read", n)
	}
	assertPipelinesAgree(t, g, host, "unbuilt")
	if n := g.Accounting().Snapshot().FragmentRenders; n != 3 {
		t.Errorf("the corpus rendered %d fragments, want one per slot (3)", n)
	}
}

// TestPollRendersOnlyOnRead pins where render cost is paid. Polling —
// fresh, failed and breaker-deferred rounds alike — renders nothing; a
// snapshot's fragment is rendered once, by its first reader, and every
// later reader of that snapshot shares it. On an N-level tree nothing
// reads a fragment until a viewer asks for one; in 1-level mode every
// parent poll reads each child slot's fragment.
func TestPollRendersOnlyOnRead(t *testing.T) {
	renders := func(g *Gmetad) int64 { return g.Accounting().Snapshot().FragmentRenders }
	build := func(t *testing.T, mode Mode, cacheOff bool) (*rig, *Gmetad, *Gmetad) {
		r := newRig(t)
		r.cluster("meteor", "meteor:8649", 6, 1)
		r.cluster("nashi", "nashi:8649", 4, 2)
		r.cluster("presto", "presto:8649", 3, 3)
		child := r.gmetad(Config{
			GridName:  "sdsc",
			Authority: "http://sdsc/",
			Mode:      mode,
			Sources:   []DataSource{{Name: "presto", Kind: SourceGmond, Addrs: []string{"presto:8649"}}},
		}, "sdsc:8652")
		g := r.gmetad(Config{
			GridName:             "root",
			Authority:            "http://root/",
			Mode:                 mode,
			BreakerThreshold:     2,
			DisableResponseCache: cacheOff,
			Sources: []DataSource{
				{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}},
				{Name: "nashi", Kind: SourceGmond, Addrs: []string{"nashi:8649"}},
				{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}},
			},
		}, "root:8652")
		return r, child, g
	}
	round := func(r *rig, gs ...*Gmetad) {
		now := r.clk.Advance(15 * time.Second)
		for _, g := range gs {
			g.PollOnce(now)
		}
	}

	for _, cacheOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("N-level/cache-off=%v", cacheOff), func(t *testing.T) {
			r, child, g := build(t, NLevel, cacheOff)
			round(r, child, g)
			// nashi fails twice, opening its breaker; the rounds after
			// that are deferred. Both kinds re-age its snapshot.
			r.net.Fail("nashi:8649")
			for i := 0; i < 5; i++ {
				round(r, child, g)
			}
			s := g.Accounting().Snapshot()
			if s.PollFails == 0 || s.BreakerSkips == 0 {
				t.Fatalf("rig did not exercise failed and deferred rounds: %d fails, %d skips", s.PollFails, s.BreakerSkips)
			}
			for name, d := range map[string]*Gmetad{"root": g, "child": child} {
				if s := d.Accounting().Snapshot(); s.FragmentRenders != 0 || s.Render != 0 {
					t.Errorf("%s: polling with no readers rendered %d fragments in %v", name, s.FragmentRenders, s.Render)
				}
			}

			// The first depth-0 answer reads, and so renders, each slot.
			var buf bytes.Buffer
			if err := g.WriteAnswer(&buf, query.MustParse("/")); err != nil {
				t.Fatal(err)
			}
			if n := renders(g); n != 3 {
				t.Fatalf("first depth-0 answer rendered %d fragments, want one per slot (3)", n)
			}
			// Every later reader of the same epoch shares those builds.
			if _, err := r.askRaw("root:8652", "/"); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"/", "/meteor", "/sdsc"} {
				if err := g.WriteAnswer(io.Discard, query.MustParse(q)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := g.captureFeed(false); err != nil {
				t.Fatal(err)
			}
			if n := renders(g); n != 3 {
				t.Errorf("readers of one epoch rendered %d fragments, want the first reader's 3", n)
			}
			if n := renders(child); n != 0 {
				t.Errorf("N-level summary polls rendered %d child fragments", n)
			}
		})
	}

	t.Run("1-level", func(t *testing.T) {
		r, child, g := build(t, OneLevel, false)
		const rounds = 4
		for i := 0; i < rounds; i++ {
			round(r, child, g)
		}
		// Each parent poll is the first reader of the child's one fresh
		// snapshot; nothing reads the parent.
		if n := renders(child); n != rounds {
			t.Errorf("child rendered %d fragments over %d parent polls, want %d", n, rounds, rounds)
		}
		if n := renders(g); n != 0 {
			t.Errorf("unread parent rendered %d fragments", n)
		}
	})
}

// TestRenderOverWire proves the corpus end to end through the query
// port: the socket answer is exactly the writeAnswer rendering.
func TestRenderOverWire(t *testing.T) {
	r, g, host := buildRenderRig(t, NLevel, false)
	for _, q := range []string{"/", "/meteor", "/meteor/" + host, "/?filter=summary"} {
		want, err := renderReference(t, g, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		got, err := r.askRaw("root:8652", q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got != want {
			t.Errorf("%q: wire response differs from reference", q)
		}
	}
}

// TestRegexSourceClusterDedup is the regression test for fillSource's
// seen map: a direct source whose name collides with a cluster nested
// inside a 1-level child grid must appear exactly once per role — the
// nested copy is reachable through its grid, not duplicated as a
// top-level cluster.
func TestRegexSourceClusterDedup(t *testing.T) {
	r := newRig(t)
	// The child's cluster is ALSO named "meteor": after the 1-level
	// union poll, the root's sdsc slot indexes a nested cluster whose
	// name collides with the root's own direct source.
	r.cluster("meteor", "meteor-direct:8649", 3, 1)
	r.cluster("meteor", "meteor-nested:8649", 2, 2)
	child := r.gmetad(Config{
		GridName:  "sdsc",
		Authority: "http://sdsc/",
		Mode:      OneLevel,
		Sources:   []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor-nested:8649"}}},
	}, "sdsc:8652")
	g := r.gmetad(Config{
		GridName:  "root",
		Authority: "http://root/",
		Mode:      OneLevel,
		Sources: []DataSource{
			{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor-direct:8649"}},
			{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}},
		},
	}, "")
	child.PollOnce(r.clk.Now())
	g.PollOnce(r.clk.Now())

	for _, q := range []string{"/~met.*", "/~.*", "/~^meteor$", "/~met.*?filter=summary"} {
		want, refErr := renderReference(t, g, q)
		got, newErr := renderGolden(t, g, q)
		if refErr != nil || newErr != nil {
			t.Fatalf("%q: ref=%v new=%v", q, refErr, newErr)
		}
		if got != want {
			t.Errorf("%q: streaming differs from reference on colliding names", q)
		}
		// The direct cluster once at top level; the nested one only
		// inside the child grid (matched as a source, not re-matched as
		// a cluster by pass 2).
		if top := strings.Count(stripGrids(got), `<CLUSTER NAME="meteor"`); top != 1 {
			t.Errorf("%q: %d top-level meteor clusters, want 1", q, top)
		}
	}

	// With the colliding direct source gone, pass 2 must surface the
	// nested cluster as a top-level match instead.
	if !g.RemoveSource("meteor") {
		t.Fatal("RemoveSource")
	}
	for _, q := range []string{"/~^meteor$", "/~met.*"} {
		want, refErr := renderReference(t, g, q)
		got, newErr := renderGolden(t, g, q)
		if refErr != nil || newErr != nil {
			t.Fatalf("%q after removal: ref=%v new=%v", q, refErr, newErr)
		}
		if got != want {
			t.Errorf("%q after removal: streaming differs from reference", q)
		}
		if top := strings.Count(stripGrids(got), `<CLUSTER NAME="meteor"`); top != 1 {
			t.Errorf("%q after removal: %d top-level meteor clusters, want 1", q, top)
		}
	}
}

// stripGrids removes nested GRID subtrees so cluster counting sees only
// top-level CLUSTER elements (the root grid open/close tags carry no
// nested clusters of their own).
func stripGrids(s string) string {
	// Drop everything between the first nested "<GRID" after the root
	// grid's open tag and the matching final "</GRID>".
	rootOpen := strings.Index(s, "<GRID")
	if rootOpen < 0 {
		return s
	}
	afterRoot := strings.Index(s[rootOpen:], ">\n") + rootOpen
	nested := strings.Index(s[afterRoot:], "<GRID")
	if nested < 0 {
		return s
	}
	nested += afterRoot
	lastClose := strings.LastIndex(s, "</GRID>\n</GRID>")
	if lastClose < 0 {
		return s[:nested]
	}
	return s[:nested] + s[lastClose+len("</GRID>\n"):]
}

// TestCacheHitAllocations: serving a depth-0 response from the cache
// must not allocate — the point of splicing cached bodies under pooled
// headers.
func TestCacheHitAllocations(t *testing.T) {
	_, g, _ := buildRenderRig(t, NLevel, false)
	q := query.MustParse("/")
	// Warm the cache and the header pool.
	if err := g.writeAnswer(io.Discard, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := g.writeAnswer(io.Discard, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cache-hit depth-0 allocates %.1f times per response, want <= 1", allocs)
	}
}

// TestCacheMissAllocationsScaleFree: a cache-miss depth-0 render is a
// fragment splice, so its allocation count must not grow with the host
// count behind the fragments.
func TestCacheMissAllocationsScaleFree(t *testing.T) {
	missAllocs := func(hosts int) float64 {
		r := newRig(t)
		r.cluster("meteor", "meteor:8649", hosts, 1)
		g := r.gmetad(Config{
			GridName:             "SDSC",
			DisableResponseCache: true, // every render is a miss
			Sources:              []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
		}, "")
		g.PollOnce(r.clk.Now())
		q := query.MustParse("/")
		return testing.AllocsPerRun(100, func() {
			if err := g.writeAnswer(io.Discard, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := missAllocs(5), missAllocs(200)
	// The old DOM pipeline allocated 2 copies + 1 METRIC rendering per
	// host metric; 40x the hosts meant hundreds of times the
	// allocations. The splice path may vary by a few (buffer growth
	// classes), never proportionally.
	if large > small+8 {
		t.Errorf("cache-miss allocations scale with hosts: %d hosts -> %.1f, %d hosts -> %.1f",
			5, small, 200, large)
	}
}

// BenchmarkRenderDepth0 compares the retired DOM pipeline against the
// zero-copy splice for a cache-miss depth-0 response (the whole-tree
// dump parents poll every 15 s). Run with -benchmem: the allocs/op gap
// is the point.
func BenchmarkRenderDepth0(b *testing.B) {
	net := transport.NewInMemNetwork()
	clk := clock.NewVirtual(t0)
	for i, name := range []string{"meteor", "nashi"} {
		p := pseudo.New(name, 96, int64(i+1), clk)
		l, err := net.Listen(name + ":8649")
		if err != nil {
			b.Fatal(err)
		}
		go p.Serve(l)
		b.Cleanup(p.Close)
	}
	g, err := New(Config{
		GridName: "SDSC",
		Network:  net,
		Clock:    clk,
		Sources: []DataSource{
			{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}},
			{Name: "nashi", Kind: SourceGmond, Addrs: []string{"nashi:8649"}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	g.PollOnce(clk.Now())
	q := query.MustParse("/")

	b.Run("dom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := g.ReferenceReport(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gxml.RenderReport(rep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("splice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.renderBody(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cachehit", func(b *testing.B) {
		b.ReportAllocs()
		if err := g.writeAnswer(io.Discard, q); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := g.writeAnswer(io.Discard, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
