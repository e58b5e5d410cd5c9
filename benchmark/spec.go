package main

import (
	"time"

	"ganglia/internal/gmetad"
	"ganglia/internal/rrd"
	"ganglia/internal/tree"
)

// viewKind is one kind of page a viewer loads.
type viewKind int

const (
	viewMeta    viewKind = iota // grid summary at the root
	viewHost                    // one host at full resolution
	viewCluster                 // one cluster at full resolution
	viewHistory                 // one archived series over a time range
	viewTopK                    // cross-host top-k history reduction
	viewRegex                   // regular-expression path query
	viewDump                    // depth-0 full dump of one gmetad
)

func (k viewKind) String() string {
	return [...]string{"meta", "host", "cluster", "history", "topk", "regex", "dump"}[k]
}

// mixEntry gives one view kind its share of a view mix, in percent.
type mixEntry struct {
	Kind    viewKind
	Percent int
}

// workloadSpec is one traffic mix over one tree.
type workloadSpec struct {
	Name string
	Why  string

	// FigureTwo selects the paper's six-gmetad tree; otherwise the
	// two-tier sparse tree is built.
	FigureTwo       bool
	HostsPerCluster int
	Mode            gmetad.Mode
	// Churn > 0 replaces pseudo.Gmond (every value redrawn each round)
	// with pseudo.ChurnGmond changing that share of hosts per round.
	Churn float64
	// Subscribe makes the root's tier links delta subscriptions.
	Subscribe bool
	Archive   bool
	// ArchiveRows > 0 swaps rrd.DefaultSpec for a one-archive layout of
	// that many rows (smoke runs only).
	ArchiveRows int

	// RoundsPerSec and ViewsPerSec pace the open-loop phases.
	RoundsPerSec float64
	ViewsPerSec  float64
	// HistoryRounds of warm-up fill the archives before measurement.
	HistoryRounds int
	// LeafViews targets Host/Cluster/History/Regex/Dump views at leaf
	// gmetads; otherwise every view goes to the root.
	LeafViews bool
	Mix       []mixEntry
}

func (w *workloadSpec) topology() *tree.Topology {
	if w.FigureTwo {
		return tree.FigureTwo(w.HostsPerCluster)
	}
	return sparseTopology(w.HostsPerCluster)
}

// smokeArchive is a one-archive layout small enough for tier-1 tests.
func smokeArchive(rows int) rrd.Spec {
	return rrd.Spec{
		Step:      pollInterval,
		Heartbeat: 4 * pollInterval,
		Archives:  []rrd.ArchiveSpec{{Step: pollInterval, Rows: rows, CF: rrd.Average}},
	}
}

// lightMix is the light viewer of the ingest workloads.
var lightMix = []mixEntry{{viewMeta, 50}, {viewHost, 50}}

// heavyMix is the viewers workload's page mix.
var heavyMix = []mixEntry{
	{viewMeta, 35}, {viewHost, 35}, {viewHistory, 8}, {viewTopK, 2},
	{viewCluster, 10}, {viewRegex, 5}, {viewDump, 5},
}

// workloads returns the four standing workloads at full size.
func workloads() []*workloadSpec {
	return []*workloadSpec{
		{
			Name:      "tree_nlevel",
			Why:       "Fig 5's own setup at full churn: parse, summarize, archive and render-at-publish do the work; caches and streams almost none",
			FigureTwo: true, HostsPerCluster: 50, Mode: gmetad.NLevel, Archive: true,
			RoundsPerSec: 3, ViewsPerSec: 200, Mix: lightMix,
		},
		{
			Name:            "sparse_poll",
			Why:             "1-level tree at 1% churn over poll links: the parent carries full-resolution data, so span-hash reuse on the poll path shows here only",
			HostsPerCluster: 50, Mode: gmetad.OneLevel, Churn: 0.01, Archive: true,
			RoundsPerSec: 7, ViewsPerSec: 200, Mix: lightMix,
		},
		{
			Name:            "sparse_stream",
			Why:             "sparse_poll with the root's links subscribed: bytes already drop, CPU and round time do not; incremental delta apply must move them here",
			HostsPerCluster: 50, Mode: gmetad.OneLevel, Churn: 0.01, Archive: true, Subscribe: true,
			RoundsPerSec: 7, ViewsPerSec: 200, Mix: lightMix,
		},
		{
			Name:      "viewers",
			Why:       "serve-side layers under a heavy page mix with little ingest: response cache across epoch bumps, fragment splice, socket write, history fetch, viewer parse",
			FigureTwo: true, HostsPerCluster: 50, Mode: gmetad.NLevel, Archive: true,
			RoundsPerSec: 2, ViewsPerSec: 250, HistoryRounds: 32, LeafViews: true, Mix: heavyMix,
		},
	}
}

// smokeWorkloads shrinks every workload for tier-1 tests: tiny
// clusters, one archive per series, slow paces.
func smokeWorkloads() []*workloadSpec {
	ws := workloads()
	for _, w := range ws {
		w.HostsPerCluster = 4
		w.ArchiveRows = 240
		w.RoundsPerSec = 10
		w.ViewsPerSec = 100
	}
	return ws
}

// phases are the lengths of one run's measured stretches.
type phases struct {
	A, B1, B2 time.Duration
	// TraceRef and TraceA are the untraced reference stretch and the
	// traced stretch of a -trace run.
	TraceRef, TraceA time.Duration
}

// phasesFor splits a run of the given length: five sevenths open loop,
// one seventh for each capacity phase. A traced run spends a seventh on
// the untraced reference and two sevenths traced, and leaves the rest
// to the replay stage.
func phasesFor(run time.Duration) phases {
	unit := run / 7
	return phases{A: 5 * unit, B1: unit, B2: unit, TraceRef: unit, TraceA: 2 * unit}
}
