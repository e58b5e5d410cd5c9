package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/tree"
	"ganglia/internal/webfront"
)

// Table1Config parameterizes the web-frontend query experiment
// (paper table 1).
type Table1Config struct {
	// ClusterSize is the host count per cluster; the paper uses 100.
	ClusterSize int
	// Samples per view; "each value in table 1 is the average of five
	// samples".
	Samples int
}

func (c *Table1Config) defaults() {
	if c.ClusterSize == 0 {
		c.ClusterSize = 100
	}
	if c.Samples == 0 {
		c.Samples = 5
	}
}

// Table1Row is one view column of the paper's table, transposed into a
// row: the viewer's download+parse time under each design and the
// speedup.
type Table1Row struct {
	View     webfront.View
	OneLevel time.Duration
	NLevel   time.Duration
	// Bytes downloaded per design, explaining the speedups.
	OneLevelBytes int64
	NLevelBytes   int64
}

// Speedup is the paper's ratio row: 1-level time / N-level time.
func (r Table1Row) Speedup() float64 {
	if r.NLevel == 0 {
		return 0
	}
	return float64(r.OneLevel) / float64(r.NLevel)
}

// ByteRatio is the speedup's deterministic cause: the bytes the
// 1-level page downloads over the bytes the N-level page does.
func (r Table1Row) ByteRatio() float64 {
	if r.NLevelBytes == 0 {
		return 0
	}
	return float64(r.OneLevelBytes) / float64(r.NLevelBytes)
}

// Table1Result is the regenerated table.
type Table1Result struct {
	Config Table1Config
	Rows   []Table1Row
}

// RunTable1 measures the time for the web frontend to download and
// parse Ganglia XML from the sdsc gmetad node for the meta, cluster and
// host views, under both designs. "We point the viewer at the sdsc
// gmeta node for this test where the clusters have 100 hosts each."
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	cfg.defaults()
	res := &Table1Result{Config: cfg}

	type sample struct {
		elapsed time.Duration
		bytes   int64
	}
	measure := func(mode gmetad.Mode) (map[webfront.View]sample, error) {
		inst, clk, err := buildInstance(mode, cfg.ClusterSize)
		if err != nil {
			return nil, err
		}
		defer inst.Close()
		inst.PollRound(clk.Now())
		v := &webfront.Viewer{
			Network:      inst.Net,
			Addr:         tree.QueryAddr("sdsc"),
			QuerySupport: mode == gmetad.NLevel,
		}
		// The sdsc node's local cluster and one of its hosts — the
		// paper's meteor / compute-0-0.
		clusterName := "nashi-a"
		hostName := fmt.Sprintf("compute-%s-%d", clusterName, 0)

		out := make(map[webfront.View]sample)
		for view, run := range map[webfront.View]func() (*webfront.Result, error){
			webfront.MetaView:    v.Meta,
			webfront.ClusterView: func() (*webfront.Result, error) { return v.Cluster(clusterName) },
			webfront.HostView:    func() (*webfront.Result, error) { return v.Host(clusterName, hostName) },
		} {
			// One untimed warm-up to populate OS and runtime caches.
			if _, err := run(); err != nil {
				return nil, fmt.Errorf("%v %v: %w", mode, view, err)
			}
			var total time.Duration
			var bytes int64
			for i := 0; i < cfg.Samples; i++ {
				r, err := run()
				if err != nil {
					return nil, fmt.Errorf("%v %v: %w", mode, view, err)
				}
				total += r.Elapsed
				bytes = r.Bytes
			}
			out[view] = sample{elapsed: total / time.Duration(cfg.Samples), bytes: bytes}
		}
		return out, nil
	}

	one, err := measure(gmetad.OneLevel)
	if err != nil {
		return nil, fmt.Errorf("table1 1-level: %w", err)
	}
	n, err := measure(gmetad.NLevel)
	if err != nil {
		return nil, fmt.Errorf("table1 N-level: %w", err)
	}
	for _, view := range []webfront.View{webfront.MetaView, webfront.ClusterView, webfront.HostView} {
		res.Rows = append(res.Rows, Table1Row{
			View:          view,
			OneLevel:      one[view].elapsed,
			NLevel:        n[view].elapsed,
			OneLevelBytes: one[view].bytes,
			NLevelBytes:   n[view].bytes,
		})
	}
	return res, nil
}

// row returns the row for a view.
func (r *Table1Result) row(v webfront.View) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].View == v {
			return &r.Rows[i]
		}
	}
	return nil
}

// ShapeErrors validates the qualitative claims of §3.3 on the bytes
// each page downloads, which depend only on the tree and the design;
// the timings follow from them and are printed but not gated:
//
//  1. N-level beats 1-level in every view;
//  2. the host view gains the most (it fetches one host instead of the
//     whole tree) and the cluster view gains the least (a full cluster
//     must be parsed either way);
//  3. under N-level, meta and host views are far cheaper than the
//     cluster view.
func (r *Table1Result) ShapeErrors() []string {
	var errs []string
	meta, clu, host := r.row(webfront.MetaView), r.row(webfront.ClusterView), r.row(webfront.HostView)
	for _, row := range r.Rows {
		if row.NLevelBytes >= row.OneLevelBytes {
			errs = append(errs, fmt.Sprintf("%s view: N-level page %dB not below 1-level %dB",
				row.View, row.NLevelBytes, row.OneLevelBytes))
		}
	}
	if host.ByteRatio() <= clu.ByteRatio() {
		errs = append(errs, fmt.Sprintf("host byte ratio %.1f not above cluster byte ratio %.1f",
			host.ByteRatio(), clu.ByteRatio()))
	}
	if meta.ByteRatio() <= clu.ByteRatio() {
		errs = append(errs, fmt.Sprintf("meta byte ratio %.1f not above cluster byte ratio %.1f",
			meta.ByteRatio(), clu.ByteRatio()))
	}
	if meta.NLevelBytes >= clu.NLevelBytes {
		errs = append(errs, "N-level meta page not smaller than cluster page")
	}
	if host.NLevelBytes >= clu.NLevelBytes {
		errs = append(errs, "N-level host page not smaller than cluster page")
	}
	return errs
}

// Table renders the result in the paper's layout: columns are views,
// rows are the designs plus the speedup.
func (r *Table1Result) Table() string {
	header := []string{""}
	one := []string{"1-level"}
	n := []string{"N-level"}
	speed := []string{"Speedup"}
	bytes1 := []string{"1-level bytes"}
	bytesN := []string{"N-level bytes"}
	ratio := []string{"Byte ratio"}
	for _, row := range r.Rows {
		header = append(header, row.View.String())
		one = append(one, fmt.Sprintf("%.4fs", row.OneLevel.Seconds()))
		n = append(n, fmt.Sprintf("%.4fs", row.NLevel.Seconds()))
		speed = append(speed, fmt.Sprintf("%.1f", row.Speedup()))
		bytes1 = append(bytes1, fmt.Sprintf("%d", row.OneLevelBytes))
		bytesN = append(bytesN, fmt.Sprintf("%d", row.NLevelBytes))
		ratio = append(ratio, fmt.Sprintf("%.1f", row.ByteRatio()))
	}
	return fmt.Sprintf("Table 1: Web-frontend time to query and parse Ganglia XML from the sdsc gmetad (clusters of %d hosts, %d samples)\n%s",
		r.Config.ClusterSize, r.Config.Samples,
		formatTable(header, [][]string{one, n, speed, bytes1, bytesN, ratio}))
}
