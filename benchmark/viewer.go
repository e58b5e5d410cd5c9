package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"

	"ganglia/internal/gmetad"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/transport"
	"ganglia/internal/tree"
	"ganglia/internal/webfront"
)

const (
	// topK is the K of every top-k history view.
	topK = 5
	// hotHosts is the size of the hot set most Host views draw from, so
	// the response cache sees repeats as well as fresh keys.
	hotHosts = 8
	// hotPercent is the share of Host views aimed at the hot set.
	hotPercent = 80
	// historyStep is the consolidation step of history views, seconds.
	historyStep = 60
	// historyWindowRounds is the length of the window history views ask
	// for, in polling rounds before the end of warm-up.
	historyWindowRounds = 24
)

// viewPlan is one page load, fully decided before measurement starts.
type viewPlan struct {
	kind    viewKind
	at      *daemon
	cluster tree.ClusterSpec
	host    string
	// query is the page's query line. webfront.Viewer builds its own
	// for the Meta, Host and Cluster pages; the benchmark sends this one
	// for the rest.
	query string
	// wantHosts is the host count the answer must carry; wantSeries the
	// HISTORY element count.
	wantHosts  int
	wantSeries int
}

// hostName is the emulators' naming rule.
func hostName(cluster string, i int) string { return fmt.Sprintf("compute-%s-%d", cluster, i) }

// viewTargets lists the gmetads that hold clusters at full resolution
// and may be asked for host-level pages.
func (lt *liveTree) viewTargets() []*daemon {
	if !lt.spec.LeafViews {
		return []*daemon{lt.root}
	}
	var leaves []*daemon
	for _, d := range lt.order {
		if d.tier == tierLeaf {
			leaves = append(leaves, d)
		}
	}
	return leaves
}

// fullClusters returns the clusters d can answer host-level queries
// for: its own, plus its whole subtree's in the 1-level design.
func (lt *liveTree) fullClusters(d *daemon) []tree.ClusterSpec {
	cs := append([]tree.ClusterSpec(nil), d.clusters...)
	if lt.spec.Mode == gmetad.OneLevel { // parents hold their whole subtree
		for _, child := range d.children {
			cs = append(cs, lt.fullClusters(child)...)
		}
	}
	return cs
}

// fullHosts counts the hosts a depth-0 dump of d carries at full
// resolution, the probe host included where d holds it.
func (lt *liveTree) fullHosts(d *daemon) int {
	n := 0
	for _, c := range lt.fullClusters(d) {
		n += c.Hosts
	}
	if lt.holdsProbe(d) {
		n++
	}
	return n
}

// holdsProbe reports whether d has the probe cluster at full
// resolution.
func (lt *liveTree) holdsProbe(d *daemon) bool {
	if d == lt.probeLeaf {
		return true
	}
	if lt.spec.Mode == gmetad.OneLevel {
		for _, child := range d.children {
			if lt.holdsProbe(child) {
				return true
			}
		}
	}
	return false
}

// spot is one place a host-level page can point at.
type spot struct {
	at      *daemon
	cluster tree.ClusterSpec
	host    int
}

// planner draws page loads from the seeded generator. The history
// window is fixed and lies wholly inside the warm-up history, so the
// same query always has the same answer size (until the archive ring
// wraps, which maxBackToBackRounds keeps out of a run).
type planner struct {
	lt      *liveTree
	rng     *rand.Rand
	targets []*daemon
	hot     []spot
	wheel   []viewKind
}

func newPlanner(lt *liveTree, rng *rand.Rand) *planner {
	pl := &planner{lt: lt, rng: rng, targets: lt.viewTargets()}
	for _, m := range lt.spec.Mix {
		for i := 0; i < m.Percent; i++ {
			pl.wheel = append(pl.wheel, m.Kind)
		}
	}
	for i := 0; i < hotHosts; i++ {
		pl.hot = append(pl.hot, pl.draw())
	}
	return pl
}

func (pl *planner) draw() spot {
	at := pl.targets[pl.rng.Intn(len(pl.targets))]
	cs := pl.lt.fullClusters(at)
	c := cs[pl.rng.Intn(len(cs))]
	return spot{at, c, pl.rng.Intn(c.Hosts)}
}

// queryFor is the query line of one page kind aimed at a cluster and a
// host index of it.
func (lt *liveTree) queryFor(kind viewKind, c tree.ClusterSpec, host int) string {
	valueMetric := lt.spec.valueMetric()
	window := fmt.Sprintf("start=%d&end=%d&step=%d",
		lt.histEnd.Add(-pollInterval*historyWindowRounds).Unix(), lt.histEnd.Unix(), historyStep)
	switch kind {
	case viewMeta:
		return "/?filter=summary"
	case viewHost:
		return "/" + c.Name + "/" + hostName(c.Name, host) + "/"
	case viewCluster:
		return "/" + c.Name
	case viewHistory:
		return fmt.Sprintf("/%s/%s/%s?%s&cf=AVERAGE", c.Name, hostName(c.Name, host), valueMetric, window)
	case viewTopK:
		return fmt.Sprintf("/%s/%s?%s&cf=MAX&topk=%d", c.Name, valueMetric, window, topK)
	case viewRegex:
		// Hosts 0-9 of the cluster, one metric each (regular expressions
		// on the cluster segment are a depth-1 feature only).
		return fmt.Sprintf("/%s/~^compute-%s-[0-9]$/%s", c.Name, c.Name, valueMetric)
	}
	return "/" // viewDump
}

// plan draws one page load of the given kind.
func (pl *planner) plan(kind viewKind) viewPlan {
	lt := pl.lt
	s := pl.draw()
	if kind == viewHost && pl.rng.Intn(100) < hotPercent {
		s = pl.hot[pl.rng.Intn(len(pl.hot))]
	}
	p := viewPlan{
		kind: kind, at: s.at, cluster: s.cluster, host: hostName(s.cluster.Name, s.host),
		query: lt.queryFor(kind, s.cluster, s.host),
	}
	switch kind {
	case viewMeta:
		p.at = lt.root
		p.wantHosts = lt.hosts + 1 // the probe host reports too
	case viewHost:
		p.wantHosts = 1
	case viewCluster:
		p.wantHosts = s.cluster.Hosts
	case viewHistory:
		p.wantSeries = 1
	case viewTopK:
		p.wantSeries = min(topK, s.cluster.Hosts)
	case viewRegex:
		p.wantHosts = min(10, s.cluster.Hosts)
	case viewDump:
		p.wantHosts = lt.fullHosts(s.at)
	}
	return p
}

// planViews draws n page loads from the workload's mix.
func (pl *planner) planViews(n int) []viewPlan {
	plans := make([]viewPlan, n)
	for i := range plans {
		plans[i] = pl.plan(pl.wheel[pl.rng.Intn(len(pl.wheel))])
	}
	return plans
}

// viewer loads pages over one connection at a time through the counting
// network, checking every answer against its plan.
type viewer struct {
	lt      *liveTree
	net     transport.Network
	clients map[*daemon]*webfront.Viewer
	// histPoints is the POINT count every history series must carry,
	// learnt from the first history answer of the warm pass.
	histPoints int
}

func newViewer(lt *liveTree) *viewer {
	v := &viewer{lt: lt, net: lt.viewNet, clients: make(map[*daemon]*webfront.Viewer)}
	for _, d := range lt.order {
		v.clients[d] = &webfront.Viewer{Network: v.net, Addr: d.addr, QuerySupport: true}
	}
	return v
}

// rawView is a page webfront.Viewer has no method for: connect, send
// the query line, download and parse — the same steps Viewer.fetch
// takes.
func (v *viewer) rawView(tr *tracer, op int64, parent int, addr, q string) (*gxml.Report, int64, error) {
	s := tr.begin("transport.dial", op, parent)
	conn, err := v.net.Dial(addr)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, q+"\n"); err != nil {
		return nil, 0, err
	}
	cr := &countingReader{r: bufio.NewReaderSize(io.LimitReader(conn, webfront.DefaultMaxResponseBytes), 64*1024)}
	s = tr.begin("gxml.parse_tree", op, parent)
	rep, err := gxml.Parse(cr)
	tr.end(s)
	if err != nil {
		return nil, cr.n, fmt.Errorf("parse answer to %q: %w", q, err)
	}
	return rep, cr.n, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// do loads one page and checks it. It returns the bytes downloaded.
func (v *viewer) do(p *viewPlan, tr *tracer, op int64) (int64, error) {
	root := tr.begin("webfront."+p.kind.String(), op, -1)
	defer tr.end(root)
	client := v.clients[p.at]
	switch p.kind {
	case viewMeta:
		res, err := client.Meta()
		if err != nil {
			return 0, err
		}
		if got := int(res.Summary.Hosts()); got != p.wantHosts {
			return res.Bytes, fmt.Errorf("meta view: %d hosts, want %d", got, p.wantHosts)
		}
		return res.Bytes, nil
	case viewHost:
		res, err := client.Host(p.cluster.Name, p.host)
		if err != nil {
			return 0, err
		}
		if got, want := len(res.Host.Metrics), v.lt.spec.metricsPerHost(); got != want {
			return res.Bytes, fmt.Errorf("host view %s: %d metrics, want %d", p.host, got, want)
		}
		return res.Bytes, nil
	case viewCluster:
		res, err := client.Cluster(p.cluster.Name)
		if err != nil {
			return 0, err
		}
		if got := len(res.Cluster.Hosts); got != p.wantHosts {
			return res.Bytes, fmt.Errorf("cluster view %s: %d hosts, want %d", p.cluster.Name, got, p.wantHosts)
		}
		return res.Bytes, nil
	}
	rep, n, err := v.rawView(tr, op, root, p.at.addr, p.query)
	if err != nil {
		return n, err
	}
	switch p.kind {
	case viewHistory, viewTopK:
		if len(rep.Histories) != p.wantSeries {
			return n, fmt.Errorf("%s view %q: %d series, want %d", p.kind, p.query, len(rep.Histories), p.wantSeries)
		}
		for _, h := range rep.Histories {
			if v.histPoints == 0 {
				v.histPoints = len(h.Points)
			}
			if len(h.Points) == 0 || len(h.Points) != v.histPoints {
				return n, fmt.Errorf("%s view %q: %d points, want %d", p.kind, p.query, len(h.Points), v.histPoints)
			}
		}
	default:
		if got := rep.Hosts(); got != p.wantHosts {
			return n, fmt.Errorf("%s view %q at %s: %d hosts, want %d", p.kind, p.query, p.at.name, got, p.wantHosts)
		}
	}
	return n, nil
}

// metricsPerHost is how many METRIC elements each emulated host carries.
func (w *workloadSpec) metricsPerHost() int {
	if w.Churn > 0 {
		return 8 // pseudo.ChurnGmond's fixed per-host metric count
	}
	return len(metric.Standard)
}

// valueMetric names a numeric metric every emulated host reports.
func (w *workloadSpec) valueMetric() string {
	if w.Churn > 0 {
		return "churn_metric_0"
	}
	return "load_one"
}
