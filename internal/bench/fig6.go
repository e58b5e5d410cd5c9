package bench

import (
	"fmt"
	"time"

	"ganglia/internal/gmetad"
)

// Fig6Config parameterizes the cluster-size sweep (paper figure 6).
type Fig6Config struct {
	// Sizes are the per-cluster host counts; the paper sweeps
	// {10, 50, 100, 150, 200, 300, 400, 500}.
	Sizes []int
	// Rounds, WarmupRounds, PollInterval as in Fig5Config.
	Rounds       int
	WarmupRounds int
	PollInterval time.Duration
}

// PaperSizes is the paper's x-axis.
var PaperSizes = []int{10, 50, 100, 150, 200, 300, 400, 500}

func (c *Fig6Config) defaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = PaperSizes
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 1
	}
	if c.PollInterval == 0 {
		c.PollInterval = 15 * time.Second
	}
}

// Fig6Point is one x-position of the figure: the aggregate %CPU over
// all six gmetad nodes at one cluster size, for each design, and the
// aggregate counts behind it.
type Fig6Point struct {
	ClusterSize int
	OneLevel    float64
	NLevel      float64

	OneLevelCounts Counts
	NLevelCounts   Counts
}

// Fig6Result is the regenerated figure.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
}

// RunFig6 sweeps the monitored cluster size with the monitoring tree
// unchanged, measuring aggregate CPU utilization across all gmetad
// nodes under both designs.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	cfg.defaults()
	res := &Fig6Result{Config: cfg}
	window := time.Duration(cfg.Rounds) * cfg.PollInterval
	for _, size := range cfg.Sizes {
		pt := Fig6Point{ClusterSize: size}
		for _, mode := range []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel} {
			inst, clk, err := buildInstance(mode, size)
			if err != nil {
				return nil, fmt.Errorf("fig6 %v size %d: %w", mode, size, err)
			}
			work := runWindow(inst, clk, cfg.Rounds, cfg.WarmupRounds, cfg.PollInterval)
			inst.Close()
			agg, counts := 0.0, Counts{}
			for _, w := range work {
				agg += w.snap.CPUPercent(window)
				counts = counts.add(w.counts)
			}
			if mode == gmetad.OneLevel {
				pt.OneLevel, pt.OneLevelCounts = agg, counts
			} else {
				pt.NLevel, pt.NLevelCounts = agg, counts
			}
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// ShapeErrors checks the qualitative claims of §3.3 on the aggregate
// counts (bytes parsed, hosts parsed and series archived per round
// across the tree); %CPU is printed but not gated, as in Fig 5:
//
//  1. the N-level aggregate is below the 1-level aggregate at every
//     cluster size;
//  2. both curves grow with cluster size (monotonic trend end-to-end);
//  3. the 1-level design scales worse: its absolute growth over the
//     sweep exceeds N-level's ("the 1-level version exhibits a
//     higher-sloped scaling behavior").
func (r *Fig6Result) ShapeErrors() []string {
	var errs []string
	if len(r.Points) < 2 {
		return []string{"not enough points"}
	}
	for _, p := range r.Points {
		errs = append(errs, lessErrors(fmt.Sprintf("size %d: N-level aggregate not below 1-level", p.ClusterSize),
			p.NLevelCounts, p.OneLevelCounts)...)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	errs = append(errs, lessErrors("1-level curve does not grow with cluster size", first.OneLevelCounts, last.OneLevelCounts)...)
	errs = append(errs, lessErrors("N-level curve does not grow with cluster size", first.NLevelCounts, last.NLevelCounts)...)
	grow := func(a, b Counts) Counts {
		return Counts{Bytes: b.Bytes - a.Bytes, Hosts: b.Hosts - a.Hosts, Series: b.Series - a.Series}
	}
	return append(errs, lessErrors("N-level growth not below 1-level growth",
		grow(first.NLevelCounts, last.NLevelCounts), grow(first.OneLevelCounts, last.OneLevelCounts))...)
}

// Table renders the figure as text.
func (r *Fig6Result) Table() string {
	header := []string{"cluster size", "1-level agg %CPU", "N-level agg %CPU", "ratio", "1-level bytes/round", "N-level bytes/round", "1-level series", "N-level series"}
	var rows [][]string
	for _, p := range r.Points {
		ratio := "-"
		if p.NLevel > 0 {
			ratio = fmt.Sprintf("%.1fx", p.OneLevel/p.NLevel)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.ClusterSize),
			fmt.Sprintf("%.2f", p.OneLevel),
			fmt.Sprintf("%.2f", p.NLevel),
			ratio,
			fmt.Sprintf("%d", p.OneLevelCounts.Bytes),
			fmt.Sprintf("%d", p.NLevelCounts.Bytes),
			fmt.Sprintf("%d", p.OneLevelCounts.Series),
			fmt.Sprintf("%d", p.NLevelCounts.Series),
		})
	}
	return fmt.Sprintf("Figure 6: Aggregate %%CPU over 6 gmetad nodes vs cluster size (12 clusters, %d rounds @ %v)\n%s",
		r.Config.Rounds, r.Config.PollInterval, formatTable(header, rows))
}
