// Package bench reproduces the paper's experimental section (§3): the
// wide-area scalability experiment of figure 5, the cluster-size sweep
// of figure 6, the web-frontend query timings of table 1, and the §2.1
// claim that a 128-node cluster's monitoring traffic stays under
// 56 kbit/s — plus the fidelity check that the pseudo-gmond emulators
// those experiments poll cost gmetad what real gmond clusters do.
//
// All experiments run the six-gmetad, twelve-cluster monitoring tree of
// figure 2, with clusters simulated by pseudo-gmond emulators — exactly
// the paper's setup. Time is virtual (a polling round advances the
// clock 15 s instantly), while per-phase processing cost is measured
// with the real monotonic clock; %CPU is measured work divided by the
// virtual window, the same ratio the paper read from `ps` on
// otherwise-idle machines.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/rrd"
	"ganglia/internal/tree"
)

// experimentArchive is a deliberately small round-robin layout so that
// the Fig 6 sweep (up to 6000 hosts × ~30 metrics of full-resolution
// archives on the 1-level root) stays within laptop memory. Archive
// update *cost* per sample is what the experiment measures, and that is
// independent of ring length.
func experimentArchive() rrd.Spec {
	return rrd.Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives:  []rrd.ArchiveSpec{{Step: 15 * time.Second, Rows: 32, CF: rrd.Average}},
	}
}

var t0 = time.Unix(1_057_000_000, 0)

// buildInstance stands up the fig-2 tree in the given mode with
// archiving enabled, using the experiment archive layout.
func buildInstance(mode gmetad.Mode, hostsPerCluster int) (*tree.Instance, *clock.Virtual, error) {
	clk := clock.NewVirtual(t0)
	topo := tree.FigureTwo(hostsPerCluster)
	inst, err := tree.Build(topo, tree.BuildConfig{
		Mode:        mode,
		Archive:     true,
		ArchiveSpec: experimentArchive(),
		Clock:       clk,
	})
	if err != nil {
		return nil, nil, err
	}
	return inst, clk, nil
}

// Counts is the deterministic work behind a %CPU figure: what a gmetad
// downloaded, parsed, summarized and archived. It depends only on the
// tree, the cluster size and the design, not on the machine or on how
// the sources' polls overlap, so the shape checks gate on it while the
// wall-clock %CPU is printed beside it.
type Counts struct {
	// Bytes is the XML downloaded and parsed per round.
	Bytes int64
	// Hosts is the HOST elements ingested per round, parsed or reused.
	Hosts int64
	// Series is the archive samples written per round: one per series,
	// since a round is one archive step.
	Series int64
	// Summaries is the reductions archived each round: one per
	// summarized cluster or child grid.
	Summaries int64
}

// countNames names the counts the shape checks compare, in the order of
// Counts.vector.
var countNames = [...]string{"bytes", "hosts", "series"}

func (c Counts) vector() [len(countNames)]int64 {
	return [...]int64{c.Bytes, c.Hosts, c.Series}
}

func (c Counts) add(o Counts) Counts {
	return Counts{c.Bytes + o.Bytes, c.Hosts + o.Hosts, c.Series + o.Series, c.Summaries + o.Summaries}
}

// lessErrors reports each count in which a is not below b; what names
// the comparison in the messages.
func lessErrors(what string, a, b Counts) []string {
	var errs []string
	av, bv := a.vector(), b.vector()
	for i, name := range countNames {
		if av[i] >= bv[i] {
			errs = append(errs, fmt.Sprintf("%s: %s %d not below %d", what, name, av[i], bv[i]))
		}
	}
	return errs
}

// nodeWork is one gmetad's share of a measured window: its accounted
// work (wall clock) and its counts.
type nodeWork struct {
	snap   gmetad.Snapshot
	counts Counts
}

// runWindow advances the tree through rounds polling rounds of interval
// each, returning each node's work over the measured rounds.
func runWindow(inst *tree.Instance, clk *clock.Virtual, rounds, warmup int, interval time.Duration) map[string]nodeWork {
	for i := 0; i < warmup; i++ {
		clk.Advance(interval)
		inst.PollRound(clk.Now())
	}
	// Collect garbage from warm-up so a GC pause triggered by one
	// mode's allocations is not charged to an arbitrary node of the
	// measured window. Short windows (≤2 rounds) remain noisy; the
	// defaults use more.
	runtime.GC()
	before := make(map[string]gmetad.Snapshot)
	written := make(map[string]uint64)
	for name, g := range inst.Gmetads {
		before[name] = g.Accounting().Snapshot()
		written[name], _ = g.Pool().Stats()
	}
	for i := 0; i < rounds; i++ {
		clk.Advance(interval)
		inst.PollRound(clk.Now())
	}
	out := make(map[string]nodeWork)
	n := int64(rounds)
	for name, g := range inst.Gmetads {
		d := g.Accounting().Snapshot().Sub(before[name])
		up, _ := g.Pool().Stats()
		scopes := map[string]bool{}
		for _, key := range g.Pool().Keys() {
			scope, rest, _ := strings.Cut(key, "/")
			if host, _, _ := strings.Cut(rest, "/"); host == gmetad.SummaryHost {
				scopes[scope] = true
			}
		}
		out[name] = nodeWork{snap: d, counts: Counts{
			Bytes:     d.BytesIn / n,
			Hosts:     (d.HostsParsed + d.HostsReused) / n,
			Series:    int64(up-written[name]) / n,
			Summaries: int64(len(scopes)),
		}}
	}
	return out
}

// formatTable renders rows of columns with aligned widths.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, r := range all {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i := range header {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", width[i]))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}
