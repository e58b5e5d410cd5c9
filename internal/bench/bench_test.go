package bench

import (
	"strings"
	"testing"
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/tree"
	"ganglia/internal/webfront"
)

// The experiment tests use reduced workloads (smaller clusters, fewer
// rounds) so the suite stays fast; the full paper-scale parameters are
// exercised by cmd/ganglia-bench and the root bench_test.go.

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig5(Fig5Config{ClusterSize: 40, Rounds: 4, WarmupRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, e := range res.ShapeErrors() {
		t.Error(e)
	}
	tab := res.Table()
	for _, want := range []string{"root", "ucsd", "physics", "math", "sdsc", "attic", "TOTAL"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	t.Logf("\n%s\n%s", tab, res.DetailTable())
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig6(Fig6Config{Sizes: []int{10, 40, 80}, Rounds: 3, WarmupRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, e := range res.ShapeErrors() {
		t.Error(e)
	}
	t.Logf("\n%s", res.Table())
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunTable1(Table1Config{ClusterSize: 60, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, e := range res.ShapeErrors() {
		t.Error(e)
	}
	// The N-level downloads must be dramatically smaller for meta and
	// host views.
	meta := res.row(webfront.MetaView)
	host := res.row(webfront.HostView)
	if meta.NLevelBytes*10 > meta.OneLevelBytes {
		t.Errorf("meta view: N-level %dB vs 1-level %dB — summary not compact",
			meta.NLevelBytes, meta.OneLevelBytes)
	}
	if host.NLevelBytes*10 > host.OneLevelBytes {
		t.Errorf("host view: N-level %dB vs 1-level %dB — subtree not compact",
			host.NLevelBytes, host.OneLevelBytes)
	}
	t.Logf("\n%s", res.Table())
}

func TestBandwidthClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunBandwidth(BandwidthConfig{Hosts: 128, WarmupSeconds: 30, WindowSeconds: 120})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.ShapeErrors() {
		t.Error(e)
	}
	t.Logf("\n%s", res.Table())
}

func TestConfigDefaults(t *testing.T) {
	var f5 Fig5Config
	f5.defaults()
	if f5.ClusterSize != 100 || f5.PollInterval != 15*time.Second {
		t.Errorf("fig5 defaults: %+v", f5)
	}
	var f6 Fig6Config
	f6.defaults()
	if len(f6.Sizes) != len(PaperSizes) {
		t.Errorf("fig6 defaults: %+v", f6)
	}
	var t1 Table1Config
	t1.defaults()
	if t1.ClusterSize != 100 || t1.Samples != 5 {
		t.Errorf("table1 defaults: %+v", t1)
	}
	var bw BandwidthConfig
	bw.defaults()
	if bw.Hosts != 128 {
		t.Errorf("bandwidth defaults: %+v", bw)
	}
}

func TestFormatTable(t *testing.T) {
	out := formatTable([]string{"a", "bbb"}, [][]string{{"xx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Errorf("no separator: %q", lines[1])
	}
}

func TestAggregateAndRowHelpers(t *testing.T) {
	res := &Fig5Result{Rows: []Fig5Row{
		{Node: "root", OneLevel: 10, NLevel: 2},
		{Node: "leaf", OneLevel: 5, NLevel: 4},
	}}
	if got := res.Aggregate(gmetad.OneLevel); got != 15 {
		t.Errorf("aggregate 1-level = %v", got)
	}
	if got := res.Aggregate(gmetad.NLevel); got != 6 {
		t.Errorf("aggregate N-level = %v", got)
	}
	if res.row("root") == nil || res.row("ghost") != nil {
		t.Error("row lookup broken")
	}
}

// TestShapeGatesOnCounts checks that the Fig 5, Fig 6 and Table 1
// shape checks gate on counts alone: %CPU and timings that contradict
// the paper pass when the counts hold, and the design faults the counts
// stand for fail.
func TestShapeGatesOnCounts(t *testing.T) {
	topo := &tree.Topology{Root: "root", Nodes: []tree.Node{
		{Name: "root", Children: []string{"leaf"}, Clusters: []tree.ClusterSpec{{Name: "a", Hosts: 10}}},
		{Name: "leaf", Clusters: []tree.ClusterSpec{{Name: "b", Hosts: 10}}},
	}}
	fig5 := func() *Fig5Result {
		return &Fig5Result{Topo: topo, Rows: []Fig5Row{
			{Node: "root", OneLevel: 1, NLevel: 9, // inverted %CPU is not gated
				OneLevelCounts: Counts{Bytes: 200, Hosts: 20, Series: 600},
				NLevelCounts:   Counts{Bytes: 110, Hosts: 10, Series: 360, Summaries: 2}},
			{Node: "leaf", OneLevel: 5, NLevel: 5,
				OneLevelCounts: Counts{Bytes: 100, Hosts: 10, Series: 300},
				NLevelCounts:   Counts{Bytes: 100, Hosts: 10, Series: 330, Summaries: 1}},
		}}
	}
	if errs := fig5().ShapeErrors(); len(errs) != 0 {
		t.Errorf("fig5 with the paper's counts: %v", errs)
	}
	// A 1-level root that archives only summaries keeps no more series
	// than its child.
	summariesOnly := fig5()
	summariesOnly.Rows[0].OneLevelCounts.Series = 300
	if errs := summariesOnly.ShapeErrors(); len(errs) == 0 {
		t.Error("fig5 passed a 1-level root that archives only summaries")
	}
	// An N-level child that forwards full detail: its parent parses the
	// child's hosts too.
	forwards := fig5()
	forwards.Rows[0].NLevelCounts.Hosts, forwards.Rows[0].NLevelCounts.Bytes = 20, 200
	if errs := forwards.ShapeErrors(); len(errs) == 0 {
		t.Error("fig5 passed an N-level node that forwards full detail")
	}

	fig6 := &Fig6Result{Points: []Fig6Point{
		{ClusterSize: 10, OneLevel: 3, NLevel: 1,
			OneLevelCounts: Counts{Bytes: 300, Hosts: 30, Series: 900},
			NLevelCounts:   Counts{Bytes: 210, Hosts: 20, Series: 690}},
		{ClusterSize: 20, OneLevel: 2, NLevel: 4, // inverted %CPU is not gated
			OneLevelCounts: Counts{Bytes: 600, Hosts: 60, Series: 1800},
			NLevelCounts:   Counts{Bytes: 410, Hosts: 40, Series: 1290}},
	}}
	if errs := fig6.ShapeErrors(); len(errs) != 0 {
		t.Errorf("fig6 with the paper's counts: %v", errs)
	}
	fig6.Points[1].NLevelCounts.Series = 1800
	if errs := fig6.ShapeErrors(); len(errs) != 2 {
		t.Errorf("fig6 with N-level series equal to 1-level: errors = %v, want below and growth", errs)
	}

	table1 := &Table1Result{Rows: []Table1Row{
		{View: webfront.MetaView, OneLevel: time.Millisecond, NLevel: time.Second, OneLevelBytes: 1000, NLevelBytes: 10},
		{View: webfront.ClusterView, OneLevel: time.Millisecond, NLevel: time.Second, OneLevelBytes: 1000, NLevelBytes: 500},
		{View: webfront.HostView, OneLevel: time.Millisecond, NLevel: time.Second, OneLevelBytes: 1000, NLevelBytes: 20},
	}}
	if errs := table1.ShapeErrors(); len(errs) != 0 {
		t.Errorf("table1 with the paper's bytes: %v", errs)
	}
	table1.Rows[2].NLevelBytes = 1000 // a host page that fetches the whole tree
	if errs := table1.ShapeErrors(); len(errs) != 3 {
		t.Errorf("table1 with a whole-tree host page: errors = %v, want 3", errs)
	}
}

func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFidelity(FidelityConfig{Hosts: 48, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.ShapeErrors() {
		t.Error(e)
	}
	t.Logf("\n%s", res.Table())
}

func TestCSVEmitters(t *testing.T) {
	f5 := &Fig5Result{
		Config: Fig5Config{ClusterSize: 10, Rounds: 2},
		Rows: []Fig5Row{
			{Node: "root", OneLevel: 1.5, NLevel: 0.5},
			{Node: "leaf", OneLevel: 0.5, NLevel: 0.6},
		},
	}
	var buf strings.Builder
	if err := f5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gmetad,one_level_cpu_pct", "root,1.5000", "TOTAL,2.0000,1.1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 csv missing %q:\n%s", want, out)
		}
	}

	f6 := &Fig6Result{Points: []Fig6Point{{ClusterSize: 10, OneLevel: 2, NLevel: 1}}}
	buf.Reset()
	if err := f6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10,2.0000,1.0000") {
		t.Errorf("fig6 csv:\n%s", buf.String())
	}

	t1 := &Table1Result{Rows: []Table1Row{{
		View: webfront.HostView, OneLevel: 2 * time.Second, NLevel: 10 * time.Millisecond,
		OneLevelBytes: 1000, NLevelBytes: 10,
	}}}
	buf.Reset()
	if err := t1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Host,2.000000,0.010000,200.00,1000,10") {
		t.Errorf("table1 csv:\n%s", buf.String())
	}
}

func TestFidelityHelpers(t *testing.T) {
	// 10 hosts of 30 metrics at ~130 B a metric: half a metric per host
	// is ~65 B a host, 650 B a round.
	side := FidelitySide{Work: 10 * time.Millisecond, Bytes: 40_000, HostsParsed: 10, Metrics: 30, Series: 310, Archivable: 310,
		Written: []uint64{310, 310}, Rejected: []uint64{0, 0}}
	r := &FidelityResult{Config: FidelityConfig{Hosts: 10, Rounds: 1}, Pseudo: side, Real: side}
	r.Pseudo.Bytes += 160 // value text differs
	r.Pseudo.Work *= 3    // wall clock is printed, never gated
	if errs := r.ShapeErrors(); len(errs) != 0 {
		t.Errorf("same input shape but errors: %v", errs)
	}

	// A backend that drops one metric per host: fewer metrics, fewer
	// series, and a METRIC element per host fewer bytes.
	dropped := *r
	dropped.Pseudo.Metrics, dropped.Pseudo.Series, dropped.Pseudo.Bytes = 29, 300, 40_000-10*130
	dropped.Pseudo.Archivable, dropped.Pseudo.Written = 300, []uint64{300, 300}
	if errs := dropped.ShapeErrors(); len(errs) != 3 {
		t.Errorf("dropped metric: errors = %v, want metrics, series and bytes", errs)
	}
	// A backend that reports a host twice: one parse too many and a
	// host's worth of bytes.
	twice := *r
	twice.Pseudo.HostsParsed, twice.Pseudo.Bytes = 11, 44_000
	if errs := twice.ShapeErrors(); len(errs) != 2 {
		t.Errorf("repeated host: errors = %v, want hosts and bytes", errs)
	}
	// A backend whose hosts are unchanged round to round.
	frozen := *r
	frozen.Pseudo.HostsParsed, frozen.Pseudo.HostsReused = 0, 10
	if errs := frozen.ShapeErrors(); len(errs) != 2 {
		t.Errorf("reused hosts: errors = %v, want parsed and reused", errs)
	}

	// An archive door that loses a host's last sample in one round, and
	// one that refuses samples.
	skipped := *r
	skipped.Real.Written = []uint64{310, 300}
	if errs := skipped.ShapeErrors(); len(errs) != 1 {
		t.Errorf("skipped archive samples: errors = %v, want one round", errs)
	}
	// One that never creates a series the report carries: the written
	// samples match the series, but not what the gmetad serves.
	unseen := *r
	unseen.Pseudo.Series, unseen.Real.Series = 300, 300
	unseen.Pseudo.Written, unseen.Real.Written = []uint64{300, 300}, []uint64{300, 300}
	if errs := unseen.ShapeErrors(); len(errs) != 2 {
		t.Errorf("series never created: errors = %v, want one per side", errs)
	}
	refused := *r
	refused.Pseudo.Rejected = []uint64{10, 10}
	if errs := refused.ShapeErrors(); len(errs) != 2 {
		t.Errorf("rejected archive samples: errors = %v, want both rounds", errs)
	}
	unmeasured := *r
	unmeasured.Real.Written, unmeasured.Real.Rejected = nil, nil
	if errs := unmeasured.ShapeErrors(); len(errs) != 1 {
		t.Errorf("no archive rounds: errors = %v, want one", errs)
	}

	empty := &FidelityResult{}
	if errs := empty.ShapeErrors(); len(errs) != 1 {
		t.Errorf("empty result errors = %v", errs)
	}
	if !strings.Contains(r.Table(), "fidelity") {
		t.Error("table missing title")
	}
}
