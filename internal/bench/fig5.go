package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/tree"
)

// Fig5Config parameterizes the wide-area scalability experiment
// (paper figure 5).
type Fig5Config struct {
	// ClusterSize is the host count of each of the twelve clusters;
	// the paper uses 100.
	ClusterSize int
	// Rounds is the number of measured 15-second polling rounds. The
	// paper measures a 60-minute window (240 rounds); per-round work
	// is constant, so a shorter window gives the same percentages with
	// less run time.
	Rounds int
	// WarmupRounds are executed before measurement begins.
	WarmupRounds int
	// PollInterval is the virtual time per round (the %CPU
	// denominator); the paper's gmetad polls every 15 s.
	PollInterval time.Duration
}

func (c *Fig5Config) defaults() {
	if c.ClusterSize == 0 {
		c.ClusterSize = 100
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 2
	}
	if c.PollInterval == 0 {
		c.PollInterval = 15 * time.Second
	}
}

// Fig5Row is one group of bars: the %CPU of one gmetad under each
// design, with the per-phase work breakdown and the counts behind it.
type Fig5Row struct {
	Node     string
	OneLevel float64
	NLevel   float64

	// OneLevelWork and NLevelWork are the raw phase deltas over the
	// measurement window, for the DetailTable breakdown.
	OneLevelWork gmetad.Snapshot
	NLevelWork   gmetad.Snapshot
	// OneLevelCounts and NLevelCounts are what the shape checks gate on.
	OneLevelCounts Counts
	NLevelCounts   Counts
}

// Fig5Result is the regenerated figure.
type Fig5Result struct {
	Config Fig5Config
	Rows   []Fig5Row
	// Topo is the measured tree, for the shape checks.
	Topo *tree.Topology
}

// RunFig5 measures per-gmetad CPU utilization in the fig-2 monitoring
// tree for both designs.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	cfg.defaults()
	res := &Fig5Result{Config: cfg, Topo: tree.FigureTwo(cfg.ClusterSize)}
	window := time.Duration(cfg.Rounds) * cfg.PollInterval
	work := make(map[gmetad.Mode]map[string]nodeWork)
	for _, mode := range []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel} {
		inst, clk, err := buildInstance(mode, cfg.ClusterSize)
		if err != nil {
			return nil, fmt.Errorf("fig5 %v: %w", mode, err)
		}
		work[mode] = runWindow(inst, clk, cfg.Rounds, cfg.WarmupRounds, cfg.PollInterval)
		inst.Close()
	}

	for _, name := range res.Topo.GmetadNames() {
		one, n := work[gmetad.OneLevel][name], work[gmetad.NLevel][name]
		res.Rows = append(res.Rows, Fig5Row{
			Node:           name,
			OneLevel:       one.snap.CPUPercent(window),
			NLevel:         n.snap.CPUPercent(window),
			OneLevelWork:   one.snap,
			NLevelWork:     n.snap,
			OneLevelCounts: one.counts,
			NLevelCounts:   n.counts,
		})
	}
	return res, nil
}

// DetailTable breaks each node's work into processing phases and
// counts, explaining *why* the bars differ: the 1-level root's time
// goes to parsing and archiving the whole cluster set; N-level
// non-leaves barely parse at all.
func (r *Fig5Result) DetailTable() string {
	header := []string{"gmetad", "design", "parse", "summarize", "archive", "serve", "bytes/round", "hosts/round", "series/round", "summaries"}
	var rows [][]string
	fmtDur := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/1e6) }
	for _, row := range r.Rows {
		for _, d := range []struct {
			node, design string
			work         gmetad.Snapshot
			counts       Counts
		}{
			{row.Node, "1-level", row.OneLevelWork, row.OneLevelCounts},
			{"", "N-level", row.NLevelWork, row.NLevelCounts},
		} {
			rows = append(rows, []string{
				d.node, d.design,
				fmtDur(d.work.DownloadParse),
				fmtDur(d.work.Summarize),
				fmtDur(d.work.Archive),
				fmtDur(d.work.Serve),
				fmt.Sprintf("%d", d.counts.Bytes),
				fmt.Sprintf("%d", d.counts.Hosts),
				fmt.Sprintf("%d", d.counts.Series),
				fmt.Sprintf("%d", d.counts.Summaries),
			})
		}
	}
	return fmt.Sprintf("Figure 5 phase breakdown (work over %d rounds)\n%s",
		r.Config.Rounds, formatTable(header, rows))
}

// Aggregate sums the bars of one design — the figure-6 y-value at this
// cluster size ("the data point at cluster size 100 represents the sum
// of all bars in the first plot").
func (r *Fig5Result) Aggregate(mode gmetad.Mode) float64 {
	total := 0.0
	for _, row := range r.Rows {
		if mode == gmetad.OneLevel {
			total += row.OneLevel
		} else {
			total += row.NLevel
		}
	}
	return total
}

// row returns the named row.
func (r *Fig5Result) row(node string) *Fig5Row {
	for i := range r.Rows {
		if r.Rows[i].Node == node {
			return &r.Rows[i]
		}
	}
	return nil
}

// ShapeErrors checks the qualitative claims of the paper's §3.3
// discussion and returns any violations. It gates on the rows' counts,
// which follow from the tree and the design alone; %CPU, their
// wall-clock consequence, is printed but not gated, because the
// sources of one round are polled at once and their timings overlap.
//
//  1. the 1-level design concentrates load toward the root: every
//     non-leaf downloads, parses and archives more than each of its
//     children, so the root bears the most;
//  2. the N-level design drastically reduces non-leaf load ("their
//     load is drastically reduced compared to their 1-level
//     counterparts");
//  3. the N-level load is flat: each node parses only the hosts of its
//     own clusters, and merges one summary per own cluster and child
//     grid, whatever lies below it;
//  4. total work is lower under N-level ("in all data points the
//     aggregate CPU usage is less for the N-level monitor").
func (r *Fig5Result) ShapeErrors() []string {
	if r.Topo == nil {
		return []string{"no tree"}
	}
	var errs []string
	var agg1, aggN Counts
	for i := range r.Topo.Nodes {
		node := &r.Topo.Nodes[i]
		row := r.row(node.Name)
		if row == nil {
			return []string{"no row for " + node.Name}
		}
		agg1, aggN = agg1.add(row.OneLevelCounts), aggN.add(row.NLevelCounts)
		for _, child := range node.Children {
			if c := r.row(child); c != nil { // a missing child row fails its own turn
				errs = append(errs, lessErrors(fmt.Sprintf("1-level load not concentrated at %s over its child %s", node.Name, child),
					c.OneLevelCounts, row.OneLevelCounts)...)
			}
		}
		if len(node.Children) > 0 {
			errs = append(errs, lessErrors("N-level did not reduce non-leaf "+node.Name,
				row.NLevelCounts, row.OneLevelCounts)...)
		}
		var own int64
		for _, c := range node.Clusters {
			own += int64(c.Hosts)
		}
		if got := row.NLevelCounts.Hosts; got != own {
			errs = append(errs, fmt.Sprintf("N-level %s parsed %d hosts a round, want its own clusters' %d", node.Name, got, own))
		}
		if got, want := row.NLevelCounts.Summaries, int64(len(node.Clusters)+len(node.Children)); got != want {
			errs = append(errs, fmt.Sprintf("N-level %s archived %d summaries, want one per own cluster and child grid (%d)", node.Name, got, want))
		}
	}
	return append(errs, lessErrors("aggregate N-level load not below 1-level", aggN, agg1)...)
}

// Table renders the figure as text, bars grouped by gmetad monitor.
func (r *Fig5Result) Table() string {
	header := []string{"gmetad", "1-level %CPU", "N-level %CPU"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Node,
			fmt.Sprintf("%.2f", row.OneLevel),
			fmt.Sprintf("%.2f", row.NLevel),
		})
	}
	rows = append(rows, []string{
		"TOTAL",
		fmt.Sprintf("%.2f", r.Aggregate(gmetad.OneLevel)),
		fmt.Sprintf("%.2f", r.Aggregate(gmetad.NLevel)),
	})
	return fmt.Sprintf("Figure 5: Wide-Area Scalability — %%CPU per gmetad (12 clusters × %d hosts, %d rounds @ %v)\n%s",
		r.Config.ClusterSize, r.Config.Rounds, r.Config.PollInterval,
		formatTable(header, rows))
}
