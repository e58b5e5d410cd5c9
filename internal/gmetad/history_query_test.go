package gmetad

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/query"
	"ganglia/internal/rrd"
)

// histArchive provisions one finest archive per consolidation function
// plus a coarser Average rollup, so the corpus can exercise every CF
// and query-time consolidation across resolutions.
func histArchive() rrd.Spec {
	return rrd.Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []rrd.ArchiveSpec{
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Average},
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Min},
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Max},
			{Step: 15 * time.Second, Rows: 64, CF: rrd.Last},
			{Step: 60 * time.Second, Rows: 64, CF: rrd.Average},
		},
	}
}

// historyCorpus is the query set the streaming history writer is proven
// byte-identical to the DOM reference over: bare, ranged, stepped,
// every CF, topk reductions, and error paths.
func historyCorpus(host string) []string {
	// The rig's clock starts at t0; polls advance 15s each, so archived
	// rows live shortly after t0.
	lo := t0.Unix()
	hi := t0.Add(time.Hour).Unix()
	mid := t0.Add(90 * time.Second).Unix()
	return []string{
		"/meteor/" + host + "/load_one?filter=history",
		"/meteor/" + host + "/load_one?filter=history&cf=MIN",
		"/meteor/" + host + "/load_one?cf=MAX",
		"/meteor/" + host + "/load_one?cf=LAST",
		"/meteor/" + host + "/load_one?step=60",
		"/meteor/" + host + "/load_one?step=45&cf=MAX",
		"/meteor/" + host + "/load_one?start=" + itoa(lo) + "&end=" + itoa(hi),
		"/meteor/" + host + "/load_one?start=" + itoa(mid) + "&end=" + itoa(hi) + "&step=60&cf=MIN",
		"/meteor/" + host + "/cpu_idle?filter=history",
		"/meteor/" + SummaryHost + "/cpu_num?filter=history",
		"/meteor/load_one?topk=2",
		"/meteor/load_one?topk=2&cf=MAX",
		"/meteor/load_one?topk=100",
		"/meteor/load_one?topk=3&step=60",
		// Empty-window and error paths must agree too.
		"/meteor/" + host + "/load_one?start=" + itoa(hi) + "&end=" + itoa(hi+600),
		"/meteor/" + host + "/load_one?start=" + itoa(hi) + "&end=" + itoa(lo), // inverted
		"/meteor/" + host + "/absent?filter=history",                           // unknown series
		"/meteor/" + host + "/absent?start=" + itoa(lo),                        // unknown series, qualified
		"/meteor?filter=history",                                               // wrong depth
		"/meteor/~comp.*/load_one?filter=history",                              // regex segment
		"/meteor/absent_metric?topk=2",                                         // topk over nothing
		"/meteor/" + host + "/load_one?topk=2",                                 // topk at wrong depth
	}
}

func itoa(v int64) string {
	var b [20]byte
	i := len(b)
	n := v
	neg := n < 0
	if neg {
		n = -n
	}
	for {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// renderHistoryStreaming renders q through the streaming history writer
// — the serve path.
func renderHistoryStreaming(t *testing.T, g *Gmetad, q string) (string, error) {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var buf bytes.Buffer
	if err := g.writeHistoryAnswer(&buf, pq); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// renderHistoryReference renders q through the public Report API and the
// DOM serializer — the reference pipeline.
func renderHistoryReference(t *testing.T, g *Gmetad, q string) (string, error) {
	t.Helper()
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	rep, err := g.Report(pq)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := gxml.WriteReport(&buf, rep); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// assertHistoryPipelinesAgree is the history equivalence oracle: every
// corpus query must produce byte-identical successes or equally-failing
// errors through both pipelines.
func assertHistoryPipelinesAgree(t *testing.T, g *Gmetad, host, label string) {
	t.Helper()
	for _, q := range historyCorpus(host) {
		want, refErr := renderHistoryReference(t, g, q)
		got, newErr := renderHistoryStreaming(t, g, q)
		if (refErr == nil) != (newErr == nil) {
			t.Errorf("%s %q: reference err=%v, streaming err=%v", label, q, refErr, newErr)
			continue
		}
		if refErr != nil {
			continue
		}
		if got != want {
			t.Errorf("%s %q: streaming output differs from reference\nstreaming:\n%s\nreference:\n%s",
				label, q, excerptDiff(got, want), excerptDiff(want, got))
		}
	}
}

func histRig(t *testing.T, path string) (*rig, *Gmetad) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 5, 1)
	g := r.gmetad(Config{
		GridName:    "SDSC",
		Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
		Archive:     true,
		ArchiveSpec: histArchive(),
		ArchivePath: path,
	}, "sdsc:8652")
	return r, g
}

func TestHistoryStreamingMatchesReference(t *testing.T) {
	r, g := histRig(t, "")
	for i := 0; i < 12; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	host := "compute-meteor-1"
	assertHistoryPipelinesAgree(t, g, host, "fresh")

	// A heartbeat-long outage writes unknown and zero rows; the
	// pipelines must stay identical over them.
	r.net.Fail("meteor:8649")
	for i := 0; i < 4; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	assertHistoryPipelinesAgree(t, g, host, "outage")

	// The wire carries exactly the streaming bytes.
	q := "/meteor/" + host + "/load_one?step=60&cf=MAX"
	want, err := renderHistoryStreaming(t, g, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.askRaw("sdsc:8652", q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("wire response differs from streaming render:\n%s", excerptDiff(got, want))
	}
}

// TestHistoryEquivalenceAfterRecovery proves the oracle holds across a
// checkpoint save/recover cycle: history answers must not change when
// the pool's durable state comes back from disk.
func TestHistoryEquivalenceAfterRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "archives.snap")
	r, g := histRig(t, path)
	for i := 0; i < 10; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	host := "compute-meteor-2"
	fresh := make(map[string]string)
	for _, q := range historyCorpus(host) {
		if out, err := renderHistoryStreaming(t, g, q); err == nil {
			fresh[q] = out
		}
	}
	if len(fresh) == 0 {
		t.Fatal("no corpus query succeeded before the checkpoint")
	}
	if err := g.SaveArchives(); err != nil {
		t.Fatal(err)
	}
	g.Close()

	r2 := newRig(t)
	r2.clk.Advance(r.clk.Now().Sub(t0))
	g2 := r2.gmetad(Config{
		GridName:    "SDSC",
		Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
		Archive:     true,
		ArchiveSpec: histArchive(),
		ArchivePath: path,
	}, "")
	if g2.Pool().Len() == 0 {
		t.Fatal("recovery restored no series")
	}
	assertHistoryPipelinesAgree(t, g2, host, "recovered")
	for q, want := range fresh {
		got, err := renderHistoryStreaming(t, g2, q)
		if err != nil {
			t.Errorf("%q: %v after recovery", q, err)
			continue
		}
		if got != want {
			t.Errorf("%q: answer changed across recovery:\n%s", q, excerptDiff(got, want))
		}
	}
	g2.Close()
}

// histDaemon is a source-less archiving daemon whose pool the test
// drives directly, for deterministic topk material.
func histDaemon(t *testing.T) *Gmetad {
	t.Helper()
	r := newRig(t)
	g, err := New(Config{
		GridName: "g", Network: r.net, Clock: r.clk,
		Archive: true, ArchiveSpec: histArchive(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestTopKRanking(t *testing.T) {
	g := histDaemon(t)
	pool := g.Pool()
	base := t0
	// alpha averages 1; bravo and charlie tie at 4; delta averages low
	// but spikes to 20 (so MAX ranks it first while AVERAGE does not);
	// echo never stores a known value; the summary pseudo-host would win
	// any ranking it were allowed into.
	for i := 0; i < 16; i++ {
		now := base.Add(time.Duration(i) * 15 * time.Second)
		feed := func(host string, v float64) {
			if err := pool.UpdateSeries("c", host, "m", now, v); err != nil {
				t.Fatal(err)
			}
		}
		feed("alpha", 1)
		feed("bravo", 4)
		feed("charlie", 4)
		if i == 8 {
			feed("delta", 20)
		} else {
			feed("delta", 2)
		}
		_ = pool.UpdateSeries("c", "echo", "m", now, math.NaN())
		feed(SummaryHost, 1000)
	}

	rank := func(q string) []string {
		t.Helper()
		rep, err := g.Report(query.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var hosts []string
		for _, h := range rep.Histories {
			hosts = append(hosts, h.Host)
		}
		return hosts
	}

	// AVERAGE: bravo and charlie tie; ties rank by host name ascending.
	if got := rank("/c/m?topk=3"); strings.Join(got, ",") != "bravo,charlie,delta" {
		t.Errorf("topk=3 AVERAGE ranking = %v", got)
	}
	// MAX: delta's spike wins.
	if got := rank("/c/m?topk=1&cf=MAX"); strings.Join(got, ",") != "delta" {
		t.Errorf("topk=1 MAX ranking = %v", got)
	}
	// K past the population returns every scorable host — echo (never
	// known) and the summary pseudo-host are excluded.
	if got := rank("/c/m?topk=100"); strings.Join(got, ",") != "bravo,charlie,delta,alpha" {
		t.Errorf("topk=100 ranking = %v", got)
	}
}

func TestHistoryEngineEdges(t *testing.T) {
	g := histDaemon(t)
	pool := g.Pool()
	for i := 0; i < 8; i++ {
		if err := pool.UpdateSeries("c", "h", "m", t0.Add(time.Duration(i)*15*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := t0.Unix(), t0.Add(time.Hour).Unix()

	// An inverted range on a known series answers with an empty HISTORY
	// element, not an error: the series exists, the window is empty.
	rep, err := g.Report(query.MustParse("/c/h/m?start=" + itoa(hi) + "&end=" + itoa(lo)))
	if err != nil {
		t.Fatalf("inverted range: %v", err)
	}
	if len(rep.Histories) != 1 || len(rep.Histories[0].Points) != 0 {
		t.Errorf("inverted range: %+v", rep.Histories)
	}

	// The same window on an unknown series is ErrNotFound.
	if _, err := g.Report(query.MustParse("/c/absent/m?start=" + itoa(lo))); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown series with params: %v", err)
	}

	// A step coarser than the whole retention degenerates to one bucket.
	rep, err = g.Report(query.MustParse("/c/h/m?step=86400"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Histories[0].Points); n != 1 {
		t.Errorf("day-step over 2 minutes of data = %d points, want 1", n)
	}
	if rep.Histories[0].Step != 86400 {
		t.Errorf("STEP attribute = %d, want the query's step", rep.Histories[0].Step)
	}
}

func TestHistoryAccountingCounters(t *testing.T) {
	g := histDaemon(t)
	pool := g.Pool()
	for i := 0; i < 8; i++ {
		now := t0.Add(time.Duration(i) * 15 * time.Second)
		for _, h := range []string{"a", "b"} {
			if err := pool.UpdateSeries("c", h, "m", now, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := g.Accounting().Snapshot()
	if _, err := renderHistoryStreaming(t, g, "/c/a/m?filter=history"); err != nil {
		t.Fatal(err)
	}
	if _, err := renderHistoryStreaming(t, g, "/c/m?topk=2"); err != nil {
		t.Fatal(err)
	}
	// Failed resolutions are not counted as answered queries.
	if _, err := renderHistoryStreaming(t, g, "/c/absent/m?filter=history"); err == nil {
		t.Fatal("absent series answered")
	}
	d := g.Accounting().Snapshot().Sub(before)
	if d.HistoryQueries != 2 {
		t.Errorf("HistoryQueries = %d, want 2", d.HistoryQueries)
	}
	if d.TopKQueries != 1 {
		t.Errorf("TopKQueries = %d, want 1", d.TopKQueries)
	}
	if d.HistoryPoints < 10 {
		t.Errorf("HistoryPoints = %d, want the served POINT count", d.HistoryPoints)
	}
}

// TestHistoryAnswerAllocs is the allocation regression gate for the
// streaming history path: one bounded budget per answered query,
// independent of the number of points served.
func TestHistoryAnswerAllocs(t *testing.T) {
	g := histDaemon(t)
	pool := g.Pool()
	for i := 0; i < 70; i++ { // enough rows to fill the finest archive
		if err := pool.UpdateSeries("c", "h", "m", t0.Add(time.Duration(i)*15*time.Second), float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	pq := query.MustParse("/c/h/m?filter=history")
	if _, err := renderHistoryStreaming(t, g, pq.String()); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := g.writeHistoryAnswer(io.Discard, pq); err != nil {
			t.Fatal(err)
		}
	})
	// A 64-point answer currently costs well under 32 allocations; a
	// per-point allocation creeping into the writer would add 64 at once.
	if avg > 48 {
		t.Errorf("writeHistoryAnswer allocations = %.1f per query, budget 48", avg)
	}
}
