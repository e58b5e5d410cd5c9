package gmetad

import (
	"sync/atomic"
	"time"
)

// Accounting tracks the processing work a gmetad performs, by phase.
//
// The paper's experiments report %CPU of otherwise-idle machines over a
// one-hour window (§3.1) — on an idle machine that ratio *is* gmetad
// work divided by wall time. This repository's substitute measures the
// same quantity directly: monotonic time spent in each processing phase
// (downloading+parsing XML, computing summaries, updating archives,
// serving queries), divided by the window length. The paper itself
// notes "a consistent measurement strategy is more critical than the
// specific collection method used".
type Accounting struct {
	downloadParse atomic.Int64 // ns reading + parsing source XML
	summarize     atomic.Int64 // ns computing additive reductions
	archive       atomic.Int64 // ns updating round-robin archives
	serve         atomic.Int64 // ns building + writing query responses
	render        atomic.Int64 // ns rendering per-source XML fragments

	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	hostsParsed atomic.Int64
	hostsReused atomic.Int64

	polls     atomic.Int64
	pollFails atomic.Int64
	failovers atomic.Int64
	queries   atomic.Int64

	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	cacheEvictedBytes atomic.Int64
	rejectedConns     atomic.Int64

	fragmentRenders atomic.Int64

	addrDialFails   atomic.Int64
	backoffs        atomic.Int64
	breakerTrips    atomic.Int64
	breakerSkips    atomic.Int64
	oversizeReports atomic.Int64
	pollPanics      atomic.Int64
	servePanics     atomic.Int64

	checkpoints          atomic.Int64
	checkpointFails      atomic.Int64
	recoveredGenerations atomic.Int64
	quarantinedSnapshots atomic.Int64

	streamFrames    atomic.Int64
	streamGaps      atomic.Int64
	streamResyncs   atomic.Int64
	streamFallbacks atomic.Int64

	historyQueries atomic.Int64
	historyPoints  atomic.Int64
	topkQueries    atomic.Int64
	// shardContended/shardWait mirror the archive pool's cumulative
	// shard-lock wait hints (synced by the history and archive paths),
	// so they participate in the Snapshot/Sub discipline like every
	// other counter.
	shardContended atomic.Int64
	shardWait      atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	DownloadParse time.Duration
	Summarize     time.Duration
	Archive       time.Duration
	Serve         time.Duration
	// Render is time spent rendering per-source XML fragments, each by
	// its snapshot's first reader — serialization work the zero-copy
	// serve pipeline moved from once-per-query to once per snapshot read.
	Render time.Duration

	BytesIn  int64
	BytesOut int64

	// HostsParsed counts HOST elements the ingest paths tokenized and
	// HostsReused those taken over unparsed from the link's previous
	// report because their bytes had not changed; the reused share is
	// how much of the ingest cost followed churn instead of size.
	HostsParsed int64
	HostsReused int64

	Polls     int64
	PollFails int64
	Failovers int64
	Queries   int64

	// CacheHits and CacheMisses count query responses served from and
	// rendered into the response cache; CacheEvictedBytes totals the
	// body bytes FIFO eviction pushed out of the byte-bounded cache
	// (epoch turnovers are invalidation, not eviction, and don't
	// count); RejectedConns counts connections turned away by the
	// max-connections semaphore.
	CacheHits         int64
	CacheMisses       int64
	CacheEvictedBytes int64
	RejectedConns     int64

	// FragmentRenders counts per-source fragment renderings: one per
	// published snapshot that something read, none for a snapshot
	// nobody read.
	FragmentRenders int64
	// FragmentFallbacks is always zero. Fragments are built on read, so
	// no fallback exists; the field is kept for the standing benchmark's
	// per-layer gmetad.fragment_fallbacks metric and goes with the next
	// change to that benchmark.
	FragmentFallbacks int64

	// AddrDialFails counts individual address dial failures (a source
	// with three replicas can fail three dials in one poll); Backoffs
	// counts dials suppressed because an address was inside its backoff
	// window; BreakerTrips counts circuit-breaker openings and
	// BreakerSkips rounds deferred by an open breaker; OversizeReports
	// counts downloads cut off at MaxReportBytes; PollPanics counts
	// poll workers recovered from a panic and ServePanics connection
	// handlers recovered from one.
	AddrDialFails   int64
	Backoffs        int64
	BreakerTrips    int64
	BreakerSkips    int64
	OversizeReports int64
	PollPanics      int64
	ServePanics     int64

	// Checkpoints counts archive generations made durable and
	// CheckpointFails attempts that were withdrawn before publication;
	// RecoveredGenerations counts snapshots restored at startup (0 or 1
	// per process) and QuarantinedSnapshots files that failed
	// verification during recovery and were renamed aside.
	Checkpoints          int64
	CheckpointFails      int64
	RecoveredGenerations int64
	QuarantinedSnapshots int64

	// StreamFrames counts subscription frames handled on either side of
	// a tier link (served by the feed, applied by a subscriber);
	// StreamGaps counts detected stream faults — generation gaps, frame
	// corruption, idle timeouts, malformed or unappliable deltas;
	// StreamResyncs counts FULL state syncs applied by subscribers (the
	// clean recovery ending a divergence window); StreamFallbacks counts
	// subscription teardowns that returned a source to the poll path.
	StreamFrames    int64
	StreamGaps      int64
	StreamResyncs   int64
	StreamFallbacks int64

	// HistoryQueries counts answered history queries and HistoryPoints
	// the POINT elements they carried; TopKQueries counts the subset
	// that ran a cross-host topk reduction. ArchiveShardContended and
	// ArchiveShardWait are the archive pool's shard-lock wait hints:
	// how many lock acquisitions had to wait (poll-loop updates vs
	// history fetches) and for how long in total.
	HistoryQueries        int64
	HistoryPoints         int64
	TopKQueries           int64
	ArchiveShardContended int64
	ArchiveShardWait      time.Duration
}

// Work returns the total processing time across phases.
func (s Snapshot) Work() time.Duration {
	return s.DownloadParse + s.Summarize + s.Archive + s.Serve + s.Render
}

// CPUPercent converts accumulated work into the paper's reporting unit:
// percent of one CPU consumed over a wall-clock window.
func (s Snapshot) CPUPercent(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.Work()) / float64(window) * 100
}

// Snapshot returns a copy of the current counters.
func (a *Accounting) Snapshot() Snapshot {
	return Snapshot{
		DownloadParse: time.Duration(a.downloadParse.Load()),
		Summarize:     time.Duration(a.summarize.Load()),
		Archive:       time.Duration(a.archive.Load()),
		Serve:         time.Duration(a.serve.Load()),
		Render:        time.Duration(a.render.Load()),
		BytesIn:       a.bytesIn.Load(),
		BytesOut:      a.bytesOut.Load(),
		HostsParsed:   a.hostsParsed.Load(),
		HostsReused:   a.hostsReused.Load(),
		Polls:         a.polls.Load(),
		PollFails:     a.pollFails.Load(),
		Failovers:     a.failovers.Load(),
		Queries:       a.queries.Load(),

		CacheHits:         a.cacheHits.Load(),
		CacheMisses:       a.cacheMisses.Load(),
		CacheEvictedBytes: a.cacheEvictedBytes.Load(),
		RejectedConns:     a.rejectedConns.Load(),

		FragmentRenders: a.fragmentRenders.Load(),

		AddrDialFails:   a.addrDialFails.Load(),
		Backoffs:        a.backoffs.Load(),
		BreakerTrips:    a.breakerTrips.Load(),
		BreakerSkips:    a.breakerSkips.Load(),
		OversizeReports: a.oversizeReports.Load(),
		PollPanics:      a.pollPanics.Load(),
		ServePanics:     a.servePanics.Load(),

		Checkpoints:          a.checkpoints.Load(),
		CheckpointFails:      a.checkpointFails.Load(),
		RecoveredGenerations: a.recoveredGenerations.Load(),
		QuarantinedSnapshots: a.quarantinedSnapshots.Load(),

		StreamFrames:    a.streamFrames.Load(),
		StreamGaps:      a.streamGaps.Load(),
		StreamResyncs:   a.streamResyncs.Load(),
		StreamFallbacks: a.streamFallbacks.Load(),

		HistoryQueries:        a.historyQueries.Load(),
		HistoryPoints:         a.historyPoints.Load(),
		TopKQueries:           a.topkQueries.Load(),
		ArchiveShardContended: a.shardContended.Load(),
		ArchiveShardWait:      time.Duration(a.shardWait.Load()),
	}
}

// Sub returns s - o, the work done between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		DownloadParse: s.DownloadParse - o.DownloadParse,
		Summarize:     s.Summarize - o.Summarize,
		Archive:       s.Archive - o.Archive,
		Serve:         s.Serve - o.Serve,
		Render:        s.Render - o.Render,
		BytesIn:       s.BytesIn - o.BytesIn,
		BytesOut:      s.BytesOut - o.BytesOut,
		HostsParsed:   s.HostsParsed - o.HostsParsed,
		HostsReused:   s.HostsReused - o.HostsReused,
		Polls:         s.Polls - o.Polls,
		PollFails:     s.PollFails - o.PollFails,
		Failovers:     s.Failovers - o.Failovers,
		Queries:       s.Queries - o.Queries,

		CacheHits:         s.CacheHits - o.CacheHits,
		CacheMisses:       s.CacheMisses - o.CacheMisses,
		CacheEvictedBytes: s.CacheEvictedBytes - o.CacheEvictedBytes,
		RejectedConns:     s.RejectedConns - o.RejectedConns,

		FragmentRenders: s.FragmentRenders - o.FragmentRenders,

		AddrDialFails:   s.AddrDialFails - o.AddrDialFails,
		Backoffs:        s.Backoffs - o.Backoffs,
		BreakerTrips:    s.BreakerTrips - o.BreakerTrips,
		BreakerSkips:    s.BreakerSkips - o.BreakerSkips,
		OversizeReports: s.OversizeReports - o.OversizeReports,
		PollPanics:      s.PollPanics - o.PollPanics,
		ServePanics:     s.ServePanics - o.ServePanics,

		Checkpoints:          s.Checkpoints - o.Checkpoints,
		CheckpointFails:      s.CheckpointFails - o.CheckpointFails,
		RecoveredGenerations: s.RecoveredGenerations - o.RecoveredGenerations,
		QuarantinedSnapshots: s.QuarantinedSnapshots - o.QuarantinedSnapshots,

		StreamFrames:    s.StreamFrames - o.StreamFrames,
		StreamGaps:      s.StreamGaps - o.StreamGaps,
		StreamResyncs:   s.StreamResyncs - o.StreamResyncs,
		StreamFallbacks: s.StreamFallbacks - o.StreamFallbacks,

		HistoryQueries:        s.HistoryQueries - o.HistoryQueries,
		HistoryPoints:         s.HistoryPoints - o.HistoryPoints,
		TopKQueries:           s.TopKQueries - o.TopKQueries,
		ArchiveShardContended: s.ArchiveShardContended - o.ArchiveShardContended,
		ArchiveShardWait:      s.ArchiveShardWait - o.ArchiveShardWait,
	}
}

// timed runs f, adds its duration to the counter and returns it. Phase
// timing uses the real monotonic clock even when the daemon logic runs
// on a virtual clock: virtual time positions the polling rounds, real
// time measures how much processing each round cost.
func timed(counter *atomic.Int64, f func()) time.Duration {
	start := time.Now() //lint:allow clock phase timing measures real processing cost even under a virtual clock
	f()
	d := time.Since(start) //lint:allow clock phase timing measures real processing cost even under a virtual clock
	counter.Add(int64(d))
	return d
}
