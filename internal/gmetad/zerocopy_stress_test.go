package gmetad

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/query"
	"ganglia/internal/transport"
)

// genGmond is a generation-stamped cluster emulator: every connection
// serves a report in which ALL hosts carry the same gauge value — the
// connection's generation number. Any response in which two hosts of
// one cluster disagree, or a summary that isn't a whole multiple of the
// host count, can only come from mixing two snapshot generations. When
// oddExtra is set, odd generations also carry a second cluster of that
// name, so the source's cluster set changes from one report to the next.
type genGmond struct {
	cluster  string
	oddExtra string
	hosts    int
	gen      atomic.Uint64
	clk      interface{ Now() time.Time }
}

func (p *genGmond) serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			gen := p.gen.Add(1)
			now := p.clk.Now()
			names := []string{p.cluster}
			if p.oddExtra != "" && gen%2 == 1 {
				names = append(names, p.oddExtra)
			}
			rep := &gxml.Report{Version: gxml.Version, Source: "gmond"}
			for _, name := range names {
				cl := &gxml.Cluster{
					Name:      name,
					Owner:     "stress",
					URL:       "http://" + name + ".example/",
					LocalTime: now.Unix(),
				}
				for i := 0; i < p.hosts; i++ {
					cl.Hosts = append(cl.Hosts, &gxml.Host{
						Name:     fmt.Sprintf("compute-%s-%d", name, i),
						IP:       fmt.Sprintf("10.0.0.%d", i),
						TMAX:     20,
						Reported: now.Unix(),
						Metrics: []metric.Metric{{
							Name:   "gen_val",
							Val:    metric.NewDouble(float64(gen)),
							TMAX:   60,
							Source: "gmond",
						}},
					})
				}
				rep.Clusters = append(rep.Clusters, cl)
			}
			_ = gxml.WriteReport(c, rep)
		}(conn)
	}
}

// checkUntorn verifies the per-generation invariant on a full report:
// within each cluster, every host's gen_val is identical.
func checkUntorn(rep *gxml.Report) error {
	var walk func(g *gxml.Grid) error
	check := func(c *gxml.Cluster) error {
		want := math.NaN()
		for _, h := range c.Hosts {
			for _, m := range h.Metrics {
				if m.Name != "gen_val" {
					continue
				}
				v, ok := m.Val.Float64()
				if !ok {
					return fmt.Errorf("cluster %s host %s: non-numeric gen_val", c.Name, h.Name)
				}
				if math.IsNaN(want) {
					want = v
				} else if v != want {
					return fmt.Errorf("cluster %s torn: host %s has gen %v, first host had %v",
						c.Name, h.Name, v, want)
				}
			}
		}
		return nil
	}
	walk = func(g *gxml.Grid) error {
		for _, c := range g.Clusters {
			if err := check(c); err != nil {
				return err
			}
		}
		for _, child := range g.Grids {
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	for _, g := range rep.Grids {
		if err := walk(g); err != nil {
			return err
		}
	}
	return nil
}

// genVals matches the gen_val gauge of every host in rendered XML.
var genVals = regexp.MustCompile(`NAME="gen_val" VAL="([^"]*)"`)

// fragmentGens returns the distinct gen_val values in a fragment.
func fragmentGens(b []byte) map[string]bool {
	gens := map[string]bool{}
	for _, m := range genVals.FindAllSubmatch(b, -1) {
		gens[string(m[1])] = true
	}
	return gens
}

// TestZeroCopyStress races pollers (including failure-driven re-aging
// republishes) against query traffic and asserts no response ever
// observes a fragment or tree-summary delta from a withdrawn snapshot
// generation. Readers of every kind — depth-0 and depth-1 answers, the
// stream feed's capture, direct fragment reads — race each other to be
// the first reader of every fresh snapshot: all of them must get the
// one fragment built for it, untorn and identical to a cold render. Run
// with -race; the data-race detector covers the publication and
// build-once discipline, these invariants cover the splice logic.
func TestZeroCopyStress(t *testing.T) {
	r := newRig(t)
	const hosts = 8
	sources := []*genGmond{
		{cluster: "alpha", hosts: hosts, clk: r.clk},
		{cluster: "beta", hosts: hosts, clk: r.clk},
	}
	for _, p := range sources {
		l, err := r.net.Listen(p.cluster + ":8649")
		if err != nil {
			t.Fatal(err)
		}
		go p.serve(l)
		t.Cleanup(func() { _ = l.Close() })
	}
	g := r.gmetad(Config{
		GridName:  "root",
		Authority: "http://root/",
		Mode:      NLevel,
		Sources: []DataSource{
			{Name: "alpha", Kind: SourceGmond, Addrs: []string{"alpha:8649"}},
			{Name: "beta", Kind: SourceGmond, Addrs: []string{"beta:8649"}},
		},
	}, "stress:8652")
	g.PollOnce(r.clk.Now())

	stop := make(chan struct{})
	var pollerWG, querierWG sync.WaitGroup

	// Poller: republishes generations as fast as it can, with periodic
	// failure windows on alpha so re-aged (shallow-copy) snapshots and
	// same-pointer tracker republishes are part of the mix.
	pollerWG.Add(1)
	go func() {
		defer pollerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				r.net.Recover("alpha:8649")
				return
			default:
			}
			switch i % 7 {
			case 3:
				r.net.Fail("alpha:8649")
			case 5:
				r.net.Recover("alpha:8649")
			}
			g.PollOnce(r.clk.Advance(time.Second))
		}
	}()

	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		querierWG.Add(1)
		go func(w int) {
			defer querierWG.Done()
			for n := 0; n < 150; n++ {
				rep, err := r.ask("stress:8652", "/")
				if err != nil {
					errc <- fmt.Errorf("querier %d: %v", w, err)
					return
				}
				if err := checkUntorn(rep); err != nil {
					errc <- fmt.Errorf("querier %d iter %d: %v", w, n, err)
					return
				}
				rep, err = r.ask("stress:8652", "/?filter=summary")
				if err != nil {
					errc <- fmt.Errorf("querier %d summary: %v", w, err)
					return
				}
				sum := rep.Grids[0].Summary
				if sum == nil {
					errc <- fmt.Errorf("querier %d: summary response without summary", w)
					return
				}
				if m := sum.Metrics["gen_val"]; m != nil {
					// Each live source contributes hosts × (one whole
					// generation); a torn tracker delta breaks the
					// divisibility.
					if rem := math.Mod(m.Sum, hosts); rem != 0 {
						errc <- fmt.Errorf("querier %d: torn tree summary: gen_val sum %v not a multiple of %d hosts",
							w, m.Sum, hosts)
						return
					}
					if m.Num%hosts != 0 {
						errc <- fmt.Errorf("querier %d: gen_val num %d not a multiple of %d", w, m.Num, hosts)
						return
					}
				}
			}
		}(w)
	}

	// Every fragment a reader obtains is recorded against its snapshot:
	// a second, different fragment for one snapshot is a broken build-once.
	var builds sync.Map // *sourceData -> *sourceFragment
	checkFrag := func(data *sourceData, f *sourceFragment) error {
		if first, loaded := builds.LoadOrStore(data, f); loaded && first != f {
			return fmt.Errorf("snapshot epoch %d has two fragments", data.epoch)
		}
		if gens := fragmentGens(f.clusters); len(gens) != 1 {
			return fmt.Errorf("snapshot epoch %d: torn fragment with gen_val values %v", data.epoch, gens)
		}
		if cold := renderFragment(data, NLevel, nil); !bytes.Equal(f.clusters, cold.clusters) {
			return fmt.Errorf("snapshot epoch %d: fragment differs from a cold render\n%s",
				data.epoch, excerptDiff(string(f.clusters), string(cold.clusters)))
		}
		return nil
	}
	readers := []func() error{
		func() error { // direct reads, as the serve path takes them
			for _, slot := range g.snapshotOrder() {
				if data, _ := slot.snapshot(); data != nil {
					if err := checkFrag(data, g.fragment(data, nil)); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() error { // the stream feed's capture
			v, err := g.captureFeed(false)
			if err != nil {
				return err
			}
			for _, fs := range v.slots {
				if err := checkFrag(fs.data, fs.frag); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { // depth-1 answers, literal and regex
			for _, q := range []string{"/alpha", "/~.*"} {
				var buf bytes.Buffer
				if err := g.WriteAnswer(&buf, query.MustParse(q)); err != nil {
					return fmt.Errorf("%s: %v", q, err)
				}
				rep, err := gxml.Parse(&buf)
				if err != nil {
					return fmt.Errorf("%s: %v", q, err)
				}
				if err := checkUntorn(rep); err != nil {
					return fmt.Errorf("%s: %v", q, err)
				}
			}
			return nil
		},
	}
	for i, read := range readers {
		querierWG.Add(1)
		go func() {
			defer querierWG.Done()
			for n := 0; n < 300; n++ {
				if err := read(); err != nil {
					errc <- fmt.Errorf("reader %d iter %d: %v", i, n, err)
					return
				}
			}
		}()
	}

	// Queriers run a fixed number of iterations; the poller churns until
	// they are done. A hang in either trips the timeout.
	queriersDone := make(chan struct{})
	go func() {
		querierWG.Wait()
		close(queriersDone)
	}()
	select {
	case <-queriersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test hung")
	}
	close(stop)
	pollerWG.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The depth-1 literal and regex paths see the same discipline.
	for _, q := range []string{"/alpha", "/~.*"} {
		rep, err := g.Report(query.MustParse(q))
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := checkUntorn(rep); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
}

// TestRegexSourceSingleGeneration is the regression test for a depth-1
// regex answer that read a slot's snapshot more than once — for the
// source pass, for the seen set and for the nested-cluster pass — so a
// publish landing in between mixed two generations of one source into
// one answer. alpha's poller republishes as fast as it can, and alpha's
// cluster set changes with every generation (alpha-extra exists in odd
// ones only); the large alphabig source widens the window between the
// passes. Every answer must be one generation of alpha: one gen_val
// throughout, no cluster twice, alpha-extra exactly when that
// generation is odd.
func TestRegexSourceSingleGeneration(t *testing.T) {
	r := newRig(t)
	for _, p := range []*genGmond{
		{cluster: "alpha", oddExtra: "alpha-extra", hosts: 2, clk: r.clk},
		{cluster: "alphabig", hosts: 100, clk: r.clk},
	} {
		l, err := r.net.Listen(p.cluster + ":8649")
		if err != nil {
			t.Fatal(err)
		}
		go p.serve(l)
		t.Cleanup(func() { _ = l.Close() })
	}
	g := r.gmetad(Config{
		GridName:             "root",
		DisableResponseCache: true,
		Sources: []DataSource{
			{Name: "alpha", Kind: SourceGmond, Addrs: []string{"alpha:8649"}},
			{Name: "alphabig", Kind: SourceGmond, Addrs: []string{"alphabig:8649"}},
		},
	}, "")
	g.PollOnce(r.clk.Now())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slot := g.slots["alpha"]
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.pollSource(slot, r.clk.Now())
		}
	}()
	defer wg.Wait()
	defer close(stop)

	q := query.MustParse("/~^alpha")
	for n := 0; n < 300; n++ {
		var buf bytes.Buffer
		if err := g.WriteAnswer(&buf, q); err != nil {
			t.Fatal(err)
		}
		rep, err := gxml.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		gens := map[float64]bool{}
		for _, c := range rep.Grids[0].Clusters {
			if seen[c.Name] {
				t.Fatalf("answer %d lists cluster %s twice", n, c.Name)
			}
			seen[c.Name] = true
			if c.Name == "alphabig" {
				continue
			}
			for _, h := range c.Hosts {
				v, _ := h.Metrics[0].Val.Float64()
				gens[v] = true
			}
		}
		if len(gens) != 1 {
			t.Fatalf("answer %d mixes alpha generations %v", n, gens)
		}
		for gen := range gens {
			if odd := int(gen)%2 == 1; seen["alpha-extra"] != odd {
				t.Fatalf("answer %d: generation %v with alpha-extra=%v", n, gen, seen["alpha-extra"])
			}
		}
	}
}

// TestFragmentCellChain pins the fragment cell's copy source across
// snapshots nobody read, at 1 % churn: snapshot N−1 is read, N is not,
// N+1 is read. N+1's render copies the hosts it shares with N−1's
// fragment and stays byte-identical to a cold render; a built cell
// keeps no old fragment; a re-aged snapshot copies nothing, because its
// TNs differ from every host span rendered before.
func TestFragmentCellChain(t *testing.T) {
	clk := clock.NewVirtual(t0)
	g, err := New(Config{
		GridName: "root",
		Network:  transport.NewInMemNetwork(), // never dialed: reports are handed in
		Clock:    clk,
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	slot := g.slots["meteor"]
	const hosts = 100
	c := mkCluster("meteor", hosts, 0)
	// publish ingests the next report, with host changed (if any) moved
	// to new values, and returns the snapshot it published.
	publish := func(changed int) *sourceData {
		t.Helper()
		if changed >= 0 {
			c.Hosts[changed] = mkHost("meteor", changed, 1)
		}
		if err := g.ingest(slot, "addr", &slot.memo, gmondDoc(c), clk.Now()); err != nil {
			t.Fatal(err)
		}
		data, _ := slot.snapshot()
		return data
	}
	// poison returns a copy of f whose host spans hold only '#', so a
	// render copying from it shows which hosts it copied.
	poison := func(f *sourceFragment) *sourceFragment {
		p := *f
		p.clusters = bytes.Clone(f.clusters)
		for _, cs := range p.spans {
			for _, hs := range cs.hosts {
				for i := hs.b.off; i < hs.b.end; i++ {
					p.clusters[i] = '#'
				}
			}
		}
		return &p
	}
	copied := func(f *sourceFragment) int {
		n := 0
		for _, cs := range f.spans {
			for _, hs := range cs.hosts {
				if f.clusters[hs.b.off] == '#' {
					n++
				}
			}
		}
		return n
	}
	cold := func(d *sourceData) []byte { return renderFragment(d, NLevel, nil).clusters }

	older := publish(-1)
	fOlder := g.fragment(older, nil)
	if older.frag.prev.Load() != nil {
		t.Error("a built cell still holds its copy source")
	}
	unread := publish(1)
	newer := publish(2)
	if unread.frag.prev.Load() != fOlder || newer.frag.prev.Load() != fOlder {
		t.Fatal("the last built fragment was not carried across the unread snapshot")
	}
	if n := copied(renderFragment(newer, NLevel, poison(fOlder))); n != hosts-2 {
		t.Errorf("N+1 copied %d hosts from N-1's fragment, want the %d it shares", n, hosts-2)
	}
	fNewer := g.fragment(newer, nil)
	if !bytes.Equal(fNewer.clusters, cold(newer)) {
		t.Errorf("span-copied render differs from a cold render\n%s", excerptDiff(string(fNewer.clusters), string(cold(newer))))
	}
	if newer.frag.prev.Load() != nil {
		t.Error("a built cell still holds its copy source")
	}

	clk.Advance(15 * time.Second)
	g.reAge(slot, clk.Now())
	aged, _ := slot.snapshot()
	if aged.age == 0 || aged.frag.prev.Load() != fNewer {
		t.Fatalf("re-aged snapshot: age %d, copy source carried %v", aged.age, aged.frag.prev.Load() == fNewer)
	}
	if n := copied(renderFragment(aged, NLevel, poison(fNewer))); n != 0 {
		t.Errorf("re-aged snapshot copied %d hosts rendered at another age", n)
	}
	if got := g.fragment(aged, nil).clusters; !bytes.Equal(got, cold(aged)) {
		t.Errorf("re-aged render differs from a cold render\n%s", excerptDiff(string(got), string(cold(aged))))
	}
}
