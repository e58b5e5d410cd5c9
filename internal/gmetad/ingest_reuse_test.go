package gmetad

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/rrd"
	"ganglia/internal/stream"
	"ganglia/internal/transport"
)

// The memoized-ingest oracle: two daemons are fed the same sequence of
// reports through the shared ingest door. One keeps its link memos warm
// from report to report, as a daemon in service does; the other is
// handed a zero memo every time, which is exactly the pre-memo pipeline
// (every HOST tokenized, every span rendered, every sample offered).
// After every step the two must answer the golden query corpus, produce
// the subscription feed's deltas and — at the end — hold archives that
// are byte-for-byte the same. Reuse is then an optimisation by proof,
// not by inspection.

// reusePair is the warm/cold pair. Both daemons have a gmond source
// "meteor" and a child-gmetad source "sdsc" (whose grid carries the
// clusters "nashi" and "presto"), so the golden corpus of render_test.go
// addresses something in every one of its shapes.
type reusePair struct {
	t          *testing.T
	clk        *clock.Virtual
	warm, cold *Gmetad
	memos      map[string]*hostMemo // warm's link memos, by source
	feeds      [2]*feedView         // last captured feed generation of warm, cold
}

func newReusePair(t *testing.T, mode Mode) *reusePair {
	p := &reusePair{t: t, clk: clock.NewVirtual(t0), memos: map[string]*hostMemo{}}
	build := func() *Gmetad {
		g, err := New(Config{
			GridName:  "root",
			Authority: "http://root/",
			Mode:      mode,
			Network:   transport.NewInMemNetwork(), // never dialed: reports are handed in
			Clock:     p.clk,
			Archive:   true,
			Sources: []DataSource{
				{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}},
				{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	p.warm, p.cold = build(), build()
	return p
}

// ingest hands doc to both daemons as source src's next report and
// reports whether it parsed. The warm daemon uses the link's memo, the
// cold one a zero memo; both get their own copy of the bytes (a memo
// keeps the report it parsed).
func (p *reusePair) ingest(src string, doc []byte) bool {
	p.t.Helper()
	memo := p.memos[src]
	if memo == nil {
		memo = &hostMemo{}
		p.memos[src] = memo
	}
	before := *memo
	now := p.clk.Now()
	errW := p.warm.ingest(p.warm.slots[src], "addr", memo, bytes.Clone(doc), now)
	errC := p.cold.ingest(p.cold.slots[src], "addr", &hostMemo{}, bytes.Clone(doc), now)
	if (errW == nil) != (errC == nil) {
		p.t.Fatalf("source %s: warm ingest err=%v, cold ingest err=%v", src, errW, errC)
	}
	if errW != nil {
		// A failed report leaves the memo exactly as it was: nothing of
		// the failed document can be reused later.
		if !sameBuffer(memo.doc, before.doc) || len(memo.clusters) != len(before.clusters) {
			p.t.Fatalf("source %s: a failed parse replaced the link memo", src)
		}
		var se *gxml.SyntaxError
		if !errors.As(errW, &se) {
			p.t.Fatalf("source %s: ingest failed with %v, want a syntax error", src, errW)
		}
	}
	return errW == nil
}

// sameBuffer reports whether a and b are the same slice of one buffer.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// compare requires byte-identical answers over the golden corpus, and
// byte-identical subscription-feed deltas since the previous compare.
func (p *reusePair) compare(label string) {
	p.t.Helper()
	queries := append(goldenCorpus("compute-meteor-1"),
		"/nashi/compute-nashi-0", "/presto", "/meteor/~compute-meteor-1.*/load_one")
	for _, q := range queries {
		want, errC := renderGolden(p.t, p.cold, q)
		got, errW := renderGolden(p.t, p.warm, q)
		if (errC == nil) != (errW == nil) {
			p.t.Fatalf("%s %q: cold err=%v, warm err=%v", label, q, errC, errW)
		}
		if got != want {
			p.t.Fatalf("%s %q: memoized ingest diverged from cold ingest\n%s", label, q, excerptDiff(want, got))
		}
	}
	// Both daemons share the render path's own reuse (a re-aged snapshot
	// keeps its host pointers in either), so the warm one is also held
	// to the DOM reference renderer.
	assertPipelinesAgree(p.t, p.warm, "compute-meteor-1", label)
	var deltas [2][]byte
	for i, g := range []*Gmetad{p.warm, p.cold} {
		cur, err := g.captureFeed(false)
		if err != nil {
			p.t.Fatal(err)
		}
		deltas[i] = stream.AppendDelta(nil, diffFeed(p.feeds[i], cur))
		p.feeds[i] = cur
	}
	if !bytes.Equal(deltas[0], deltas[1]) {
		p.t.Fatalf("%s: feed delta of the warm daemon differs from the cold daemon's (%d vs %d bytes)",
			label, len(deltas[0]), len(deltas[1]))
	}
}

// compareArchives requires the two archive pools to hold the same
// series with the same history at every resolution.
func (p *reusePair) compareArchives() {
	p.t.Helper()
	wk, ck := p.warm.pool.Keys(), p.cold.pool.Keys()
	if !slices.Equal(wk, ck) {
		p.t.Fatalf("archived series differ: warm has %d, cold %d", len(wk), len(ck))
	}
	for _, key := range wk {
		for _, step := range []time.Duration{0, 6 * time.Minute} {
			w := p.warm.pool.FetchRange(key, rrd.Average, time.Time{}, time.Time{}, step)
			c := p.cold.pool.FetchRange(key, rrd.Average, time.Time{}, time.Time{}, step)
			if len(w) != len(c) {
				p.t.Fatalf("series %s step %v: %d points warm, %d cold", key, step, len(w), len(c))
			}
			for i := range w {
				if !w[i].Time.Equal(c[i].Time) || math.Float64bits(w[i].Value) != math.Float64bits(c[i].Value) {
					p.t.Fatalf("series %s step %v point %d: warm %v, cold %v", key, step, i, w[i], c[i])
				}
			}
		}
	}
}

// reused returns how many HOST elements the warm daemon has taken from
// a memo so far; the cold daemon must never report any.
func (p *reusePair) reused() int64 {
	p.t.Helper()
	if n := p.cold.Accounting().Snapshot().HostsReused; n != 0 {
		p.t.Fatalf("the cold daemon reused %d hosts from zero memos", n)
	}
	return p.warm.Accounting().Snapshot().HostsReused
}

// mkHost builds one host of the test model; gen varies its values.
func mkHost(cluster string, i, gen int) *gxml.Host {
	return &gxml.Host{
		Name: fmt.Sprintf("compute-%s-%d", cluster, i), IP: fmt.Sprintf("10.0.0.%d", i),
		Reported: 1_057_000_000, TN: 3, TMAX: 20,
		Metrics: []metric.Metric{
			{Name: "load_one", Val: metric.NewFloat(float64(gen) + float64(i)/4), Slope: metric.SlopeBoth, TN: 2, TMAX: 70, Source: "gmond"},
			{Name: "cpu_num", Val: metric.NewTyped(metric.TypeUint16, fmt.Sprint(2+gen%3)), Units: "CPUs", Slope: metric.SlopeZero, TN: 9, TMAX: 1200, Source: "gmond"},
			{Name: "os_name", Val: metric.NewString(`Linux <"&'> ` + fmt.Sprint(gen)), Slope: metric.SlopeZero, TMAX: 1200, Source: "gmond"},
		},
	}
}

func mkCluster(name string, hosts, gen int) *gxml.Cluster {
	c := &gxml.Cluster{Name: name, Owner: "test", URL: "http://" + name + "/", LocalTime: 1_057_000_000}
	for i := 0; i < hosts; i++ {
		c.Hosts = append(c.Hosts, mkHost(name, i, gen))
	}
	return c
}

// gmondDoc and gridDoc serialize a model the way a gmond and a 1-level
// child gmetad report it.
func gmondDoc(clusters ...*gxml.Cluster) []byte {
	b, _ := gxml.RenderReport(&gxml.Report{Version: gxml.Version, Source: "gmond", Clusters: clusters})
	return b
}

func gridDoc(clusters ...*gxml.Cluster) []byte {
	b, _ := gxml.RenderReport(&gxml.Report{Version: gxml.Version, Source: "gmetad", Grids: []*gxml.Grid{{
		Name: "sdsc", Authority: "http://sdsc/", LocalTime: 1_057_000_000, Clusters: clusters,
	}}})
	return b
}

// throughFault delivers doc over an in-memory connection degraded by
// plan and returns what a poller would have downloaded.
func throughFault(t *testing.T, doc []byte, plan transport.FaultPlan, seed int64) []byte {
	t.Helper()
	inner := transport.NewInMemNetwork()
	l, err := inner.Listen("src:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write(doc)
		_ = c.Close()
	}()
	fnet := transport.NewFaultNetwork(inner, seed, clock.NewVirtual(t0))
	fnet.SetPlan("src:1", plan)
	c, err := fnet.Dial("src:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _ := io.ReadAll(io.LimitReader(c, 1<<20))
	return got
}

// TestIngestReuseEquivalence walks both link kinds through every way a
// report can differ from its predecessor, in both tree designs.
func TestIngestReuseEquivalence(t *testing.T) {
	for _, mode := range []Mode{NLevel, OneLevel} {
		t.Run(mode.String(), func(t *testing.T) { testIngestReuse(t, mode) })
	}
}

func testIngestReuse(t *testing.T, mode Mode) {
	p := newReusePair(t, mode)
	rng := rand.New(rand.NewSource(7))
	const hosts = 12
	meteor := mkCluster("meteor", hosts, 0)
	nashi, presto := mkCluster("nashi", 5, 0), mkCluster("presto", 4, 0)
	// step ingests the current model into both sources, one polling
	// interval later, and compares.
	step := func(label string) {
		t.Helper()
		p.clk.Advance(15 * time.Second)
		if !p.ingest("meteor", gmondDoc(meteor)) || !p.ingest("sdsc", gridDoc(nashi, presto)) {
			t.Fatalf("%s: model report failed to parse", label)
		}
		p.compare(label)
	}
	// wantReused asserts how many of the step's HOST elements the warm
	// daemon took from its memos.
	last := int64(0)
	wantReused := func(label string, want int) {
		t.Helper()
		now := p.reused()
		if got := now - last; got != int64(want) {
			t.Errorf("%s: %d hosts reused, want %d", label, got, want)
		}
		last = now
	}

	step("cold start")
	wantReused("cold start", 0)

	// Churn 0 %, one host, 50 %, 100 %.
	step("churn 0%")
	wantReused("churn 0%", hosts+9)
	meteor.Hosts[3] = mkHost("meteor", 3, 1)
	step("churn one host")
	wantReused("churn one host", hosts-1+9)
	for i := 0; i < hosts; i += 2 {
		meteor.Hosts[i] = mkHost("meteor", i, 2)
	}
	nashi.Hosts[1] = mkHost("nashi", 1, 2)
	step("churn 50%")
	wantReused("churn 50%", hosts/2+8)
	meteor, nashi, presto = mkCluster("meteor", hosts, 3), mkCluster("nashi", 5, 3), mkCluster("presto", 4, 3)
	step("churn 100%")
	wantReused("churn 100%", 0)

	// Membership: add in the middle, remove, reorder, rename.
	meteor.Hosts = append(meteor.Hosts[:5:5], append([]*gxml.Host{mkHost("meteor", 50, 3)}, meteor.Hosts[5:]...)...)
	step("host added")
	wantReused("host added", hosts+9)
	meteor.Hosts = append(meteor.Hosts[:2:2], meteor.Hosts[3:]...)
	nashi.Hosts = nashi.Hosts[:4]
	step("hosts removed")
	wantReused("hosts removed", hosts+8)
	rng.Shuffle(len(meteor.Hosts), func(i, j int) { meteor.Hosts[i], meteor.Hosts[j] = meteor.Hosts[j], meteor.Hosts[i] })
	rng.Shuffle(len(presto.Hosts), func(i, j int) { presto.Hosts[i], presto.Hosts[j] = presto.Hosts[j], presto.Hosts[i] })
	step("hosts reordered")
	wantReused("hosts reordered", hosts+8)
	renamed := *meteor.Hosts[0]
	renamed.Name = "compute-meteor-renamed"
	meteor.Hosts[0] = &renamed
	step("host renamed")
	wantReused("host renamed", hosts-1+8)

	// A host moves between clusters of the child: same bytes, other
	// cluster — it must be parsed, the memo is keyed by cluster.
	moved := nashi.Hosts[0]
	nashi.Hosts = nashi.Hosts[1:]
	presto.Hosts = append(presto.Hosts, moved)
	step("host moved between clusters")
	wantReused("host moved between clusters", hosts+7)

	// Duplicate names: the first element wins; then the pair swaps, so
	// the winner changes while both elements are byte-identical to
	// remembered ones.
	dupA, dupB := mkHost("meteor", 1, 8), mkHost("meteor", 1, 9)
	meteor.Hosts = append(meteor.Hosts, dupA, dupB)
	step("duplicate host names")
	meteor.Hosts[len(meteor.Hosts)-2], meteor.Hosts[len(meteor.Hosts)-1] = dupB, dupA
	step("duplicates swapped")
	meteor.Hosts = meteor.Hosts[:len(meteor.Hosts)-2]
	step("duplicates gone")
	// The same cluster twice in one report.
	p.clk.Advance(15 * time.Second)
	if !p.ingest("sdsc", gridDoc(nashi, presto, mkCluster("nashi", 3, 11))) {
		t.Fatal("duplicate cluster report failed to parse")
	}
	p.compare("duplicate cluster names")
	step("duplicate cluster gone")
	last = p.reused()

	// A changed element that is a prefix or an extension of the old
	// one: a host loses its last metric, regains it, loses all of them.
	h := *meteor.Hosts[4]
	full := h.Metrics
	h.Metrics = full[:2]
	meteor.Hosts[4] = &h
	step("host lost a metric")
	wantReused("host lost a metric", len(meteor.Hosts)-1+len(nashi.Hosts)+len(presto.Hosts))
	h2 := h
	h2.Metrics = full
	meteor.Hosts[4] = &h2
	step("host regained a metric")
	h3 := h
	h3.Metrics = nil
	meteor.Hosts[4] = &h3
	step("host without metrics")
	step("host without metrics, unchanged")
	last = p.reused()

	// Two reports within one instant (consecutive frames of one round):
	// the archive takes the first sample of every series it has, and a
	// host new to the second report still gets its own.
	meteor.Hosts[2] = mkHost("meteor", 2, 20)
	meteor.Hosts = append(meteor.Hosts, mkHost("meteor", 70, 20))
	if !p.ingest("meteor", gmondDoc(meteor)) {
		t.Fatal("same-instant report failed to parse")
	}
	p.compare("second report of one instant")
	wantReused("second report of one instant", len(meteor.Hosts)-2)
	p.compareArchives()

	// Reports that fail: cut inside an unchanged host, cut between
	// elements, garbled in flight. Nothing of them may be remembered,
	// and the next good report must come out as if they never arrived.
	good := gmondDoc(meteor)
	cutAt := bytes.Index(good, []byte(`<HOST NAME="`+meteor.Hosts[6].Name+`"`)) + 40
	for _, plan := range []transport.FaultPlan{
		{Mode: transport.FaultTruncate, TruncateAfter: int64(cutAt)},
		{Mode: transport.FaultTruncate, TruncateAfter: int64(bytes.Index(good, []byte("</HOST>")) + len("</HOST>\n"))},
		{Mode: transport.FaultGarble, GarbleEvery: 64},
		{Mode: transport.FaultGarble, GarbleEvery: 1500},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			p.clk.Advance(15 * time.Second)
			bad := throughFault(t, good, plan, seed)
			label := fmt.Sprintf("%s/%d seed %d", plan.Mode, plan.GarbleEvery, seed)
			if p.ingest("meteor", bad) {
				// A garble that happened to leave a well-formed document
				// is just another report.
				p.compare(label + " (parsed)")
				continue
			}
			p.compare(label + " (rejected)")
			// Both daemons age the snapshot they kept, as a failed poll does.
			for _, g := range []*Gmetad{p.warm, p.cold} {
				g.sourceFailed(g.slots["meteor"], p.clk.Now(), errors.New("injected"))
			}
			p.compare(label + " (re-aged)")
		}
	}
	meteor.Hosts[0] = mkHost("meteor", 0, 30)
	step("good report after failures")

	// Re-aged snapshots: a failed round republishes the kept snapshot at
	// a new age, a second one at another; spans rendered at one age must
	// not be copied into a fragment of another, in either direction.
	for i := 0; i < 2; i++ {
		p.clk.Advance(15 * time.Second)
		for _, g := range []*Gmetad{p.warm, p.cold} {
			for _, src := range []string{"meteor", "sdsc"} {
				g.sourceFailed(g.slots[src], p.clk.Now(), errors.New("injected"))
			}
		}
		p.compare(fmt.Sprintf("re-aged %d", i))
	}
	step("recovered, unchanged")
	step("steady")

	// Spellings the memo's key does not recognise — an entity in the
	// name, another attribute first, other quotes — are parsed every
	// time and still come out right; the plainly spelled third host is
	// reused as ever.
	odd := []byte(strings.Replace(string(gmondDoc(mkCluster("meteor", 3, 40))),
		`<HOST NAME="compute-meteor-0" IP="10.0.0.0"`, `<HOST IP="10.0.0.0" NAME='compute-meteor-0'`, 1))
	odd = []byte(strings.Replace(string(odd), `NAME="compute-meteor-1"`, `NAME="compute-meteor-&#49;"`, 1))
	last = p.reused()
	for i := 0; i < 2; i++ {
		p.clk.Advance(15 * time.Second)
		parsedBefore := p.warm.Accounting().Snapshot().HostsParsed
		if !p.ingest("meteor", odd) {
			t.Fatal("oddly spelled report failed to parse")
		}
		p.compare("odd spellings")
		wantReused(fmt.Sprintf("odd spellings, pass %d", i), i) // none of a new report, then host 2
		if got := p.warm.Accounting().Snapshot().HostsParsed - parsedBefore; got != int64(3-i) {
			t.Errorf("odd spellings, pass %d: %d hosts parsed, want %d", i, got, 3-i)
		}
	}
	p.compareArchives()
}

// TestIngestReuseCounters pins the reuse share the benchmark's sparse
// workloads rely on: ChurnGmond at 1 % churn leaves 99 of 100 hosts
// byte-identical, a full-churn source none.
func TestIngestReuseCounters(t *testing.T) {
	p := newReusePair(t, OneLevel)
	c := mkCluster("meteor", 100, 0)
	p.ingest("meteor", gmondDoc(c))
	for round := 1; round <= 5; round++ {
		p.clk.Advance(15 * time.Second)
		c.Hosts[round] = mkHost("meteor", round, round)
		p.ingest("meteor", gmondDoc(c))
	}
	s := p.warm.Accounting().Snapshot()
	if s.HostsParsed != 100+5 || s.HostsReused != 5*99 {
		t.Errorf("parsed %d, reused %d; want 105 and 495", s.HostsParsed, s.HostsReused)
	}
	if d := s.Sub(s); d.HostsParsed != 0 || d.HostsReused != 0 {
		t.Errorf("Snapshot.Sub leaves host counters: %+v", d)
	}
	for round := 0; round < 3; round++ {
		p.clk.Advance(15 * time.Second)
		p.ingest("meteor", gmondDoc(mkCluster("meteor", 100, 10+round)))
	}
	if got := p.warm.Accounting().Snapshot().HostsReused; got != s.HostsReused {
		t.Errorf("full churn reused %d hosts", got-s.HostsReused)
	}
}

// TestIngestUnchangedAllocations gates the cost model: ingesting a
// report whose hosts are all unchanged allocates per cluster (tables,
// the snapshot), never per host.
func TestIngestUnchangedAllocations(t *testing.T) {
	measure := func(hostsPerCluster int) float64 {
		g, err := New(Config{
			GridName: "root", Mode: OneLevel, Network: transport.NewInMemNetwork(), Clock: clock.NewVirtual(t0),
			Sources: []DataSource{{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		doc := gridDoc(mkCluster("a", hostsPerCluster, 0), mkCluster("b", hostsPerCluster, 0), mkCluster("c", hostsPerCluster, 0))
		slot, memo := g.slots["sdsc"], &hostMemo{}
		ingest := func() {
			// The memo owns the buffer of the report it parsed; write the
			// next one into its spare, as both link kinds do.
			next := append(memo.spare[:0], doc...)
			if err := g.ingest(slot, "addr", memo, next, t0); err != nil {
				t.Fatal(err)
			}
		}
		ingest()
		ingest() // both report buffers exist now
		return testing.AllocsPerRun(20, ingest)
	}
	small, large := measure(50), measure(400)
	t.Logf("allocations per unchanged 3-cluster report: %.0f at 50 hosts/cluster, %.0f at 400", small, large)
	if large > small+12 {
		t.Errorf("allocations grow with hosts: %.0f at 150 hosts, %.0f at 1200", small, large)
	}
	if small > 40*3 {
		t.Errorf("%.0f allocations for an unchanged 3-cluster report", small)
	}
}

// FuzzIngestReuse feeds the pair arbitrary pairs of documents, in the
// order A, B, A, B: whatever the memo of one holds while the other is
// parsed — shared prefixes, elements cut short, garbage — the warm
// daemon must accept and reject exactly what the cold one does and
// answer identically afterwards.
func FuzzIngestReuse(f *testing.F) {
	a := gmondDoc(mkCluster("meteor", 4, 0))
	b := gmondDoc(mkCluster("meteor", 4, 0), mkCluster("nashi", 2, 1))
	changed := mkCluster("meteor", 4, 0)
	changed.Hosts[2] = mkHost("meteor", 2, 5)
	f.Add(a, a)
	f.Add(a, gmondDoc(changed))
	f.Add(a, b)
	f.Add(a, a[:len(a)/2])
	f.Add(a, a[:bytes.Index(a, []byte("</HOST>"))+3])
	f.Add(a, bytes.Replace(a, []byte("</HOST>"), []byte("</HOST>junk<HOST"), 1))
	f.Add(a, bytes.Replace(a, []byte(`TN="3"`), []byte(`TN="3" `), 1))
	f.Add(gridDoc(mkCluster("meteor", 3, 0)), gridDoc(mkCluster("meteor", 3, 0), mkCluster("meteor", 2, 1)))
	f.Add([]byte(`<GANGLIA_XML VERSION="1" SOURCE="s"><CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0"><HOST NAME="h" IP=""/><HOST NAME="h" IP="" REPORTED="0"><METRIC NAME="m" VAL="1" TYPE="int32"/></HOST></CLUSTER></GANGLIA_XML>`),
		[]byte(`<GANGLIA_XML VERSION="1" SOURCE="s"><CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0"><HOST NAME="h" IP=""/></CLUSTER></GANGLIA_XML>`))

	f.Fuzz(func(t *testing.T, docA, docB []byte) {
		p := newReusePair(t, OneLevel)
		for i, doc := range [][]byte{docA, docB, docA, docB} {
			p.clk.Advance(15 * time.Second)
			p.ingest("meteor", doc)
			p.ingest("sdsc", doc)
			p.compare(fmt.Sprintf("document %d", i))
		}
		p.reused()
		p.compareArchives()
	})
}

// BenchmarkIngestChurn measures one report's trip through the shared
// ingest door (parse against the memo, finish, publish) and the render
// its first reader pays, for a 1-level child of 300 hosts at the churn
// levels of the standing benchmark's workloads: 0 % and 1 % (sparse_*),
// 100 % (tree_nlevel's regime, where only the tokenizer's own speed
// helps).
func BenchmarkIngestChurn(b *testing.B) {
	for _, churn := range []int{0, 1, 100} {
		b.Run(fmt.Sprintf("churn=%d%%", churn), func(b *testing.B) {
			g, err := New(Config{
				GridName: "root", Mode: OneLevel, Network: transport.NewInMemNetwork(), Clock: clock.NewVirtual(t0),
				Sources: []DataSource{{Name: "sdsc", Kind: SourceGmetad, Addrs: []string{"sdsc:8652"}}},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			// Two generations of the report, alternated: churn% of the
			// hosts differ between them.
			var docs [2][]byte
			for gen := range docs {
				var clusters []*gxml.Cluster
				for c := 0; c < 6; c++ {
					cl := mkCluster(fmt.Sprintf("c%d", c), 50, 0)
					for i := 0; i < 50*churn/100 || (churn == 1 && c == 0 && i < 3); i++ {
						cl.Hosts[i] = mkHost(cl.Name, i, gen+1)
					}
					clusters = append(clusters, cl)
				}
				docs[gen] = gridDoc(clusters...)
			}
			slot, memo := g.slots["sdsc"], &hostMemo{}
			b.SetBytes(int64(len(docs[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc := append(memo.spare[:0], docs[i%2]...)
				if err := g.ingest(slot, "addr", memo, doc, t0); err != nil {
					b.Fatal(err)
				}
				data, _ := slot.snapshot()
				g.fragment(data, nil)
			}
		})
	}
}
