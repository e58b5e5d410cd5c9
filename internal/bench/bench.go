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

// runWindow advances the tree through rounds polling rounds of interval
// each, returning per-node work deltas.
func runWindow(inst *tree.Instance, clk *clock.Virtual, rounds, warmup int, interval time.Duration) map[string]gmetad.Snapshot {
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
	for name, g := range inst.Gmetads {
		before[name] = g.Accounting().Snapshot()
	}
	for i := 0; i < rounds; i++ {
		clk.Advance(interval)
		inst.PollRound(clk.Now())
	}
	delta := make(map[string]gmetad.Snapshot)
	for name, g := range inst.Gmetads {
		delta[name] = g.Accounting().Snapshot().Sub(before[name])
	}
	return delta
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
