package gmetad

import (
	"slices"
	"strings"
	"time"

	"ganglia/internal/rrd"
	"ganglia/internal/summary"
)

// SummaryHost is the pseudo-host archive key segment for cluster and
// grid summary series, e.g. "Meteor/__summary__/load_one".
const SummaryHost = "__summary__"

// archiveSource writes one polling round's samples into the round-robin
// pool. The archive scope is the crux of the two designs:
//
//   - 1-level: every ancestor keeps full-resolution archives for every
//     host below it ("every monitor between a cluster and the root will
//     keep identical metric archives for that cluster", §2.1) — so the
//     whole flattened cluster index is archived.
//   - N-level: full archives only for local (gmond) clusters this node
//     is authoritative for; remote grids contribute only their O(m)
//     summary series ("nodes in the N-level monitoring tree keep only
//     summary archives of descendants rather than full duplicates",
//     §3.3).
//
// Each host's samples go through the pool's write door in one call,
// built in buf, which is returned for the caller to keep for its next
// round.
func (g *Gmetad) archiveSource(data *sourceData, buf []rrd.Sample, now time.Time) []rrd.Sample {
	buf = g.archiveTree(data, buf, now, false)
	g.syncArchiveContention()
	return buf
}

// zeroFill writes zero records for every series a source feeds, used
// while the source is unreachable; buf is as for archiveSource.
func (g *Gmetad) zeroFill(data *sourceData, buf []rrd.Sample, now time.Time) []rrd.Sample {
	return g.archiveTree(data, buf, now, true)
}

// archiveTree walks the series data feeds, writing each host's numeric
// metrics (zero for every one when zero is set) and each reduction's
// SUMs. A down host gets explicit zero records too — "if a monitored
// node has failed, it keeps a 'zero' record during the downtime,
// aiding time-of-death forensic analysis" (§2.1).
func (g *Gmetad) archiveTree(data *sourceData, buf []rrd.Sample, now time.Time, zero bool) []rrd.Sample {
	fullDetail := g.cfg.Mode == OneLevel || data.kind == SourceGmond
	if fullDetail {
		for _, cname := range data.clusterOrder {
			c := data.clusters[cname]
			for _, hname := range c.order {
				h := c.hosts[hname]
				down := zero || !h.Up()
				buf = buf[:0]
				for i := range h.Metrics {
					m := &h.Metrics[i]
					v, ok := m.Val.Float64()
					if !ok {
						continue // non-numeric metrics are not archived
					}
					if down {
						v = 0
					}
					buf = append(buf, rrd.Sample{Metric: m.Name, Value: v})
				}
				// ErrPastUpdate is expected when two polls land within
				// one archive step; the samples are simply coalesced away.
				_ = g.pool.UpdateHost(cname, hname, now, buf)
			}
			buf = g.archiveSummary(cname, c.summary, buf, now, zero)
		}
	}
	// The source-level summary series is kept in both designs: the
	// 1-level web frontend recomputes it per page (Table 1), but the
	// daemon still archives grid totals.
	if data.kind == SourceGmetad {
		buf = g.archiveSummary(data.name, data.summary, buf, now, zero)
	}
	return buf
}

// archiveSummary writes a reduction's SUM series (zeros when zero is
// set) under the __summary__ pseudo-host, sorted by name in buf so the
// door's position match holds every round without an allocation.
func (g *Gmetad) archiveSummary(scope string, s *summary.Summary, buf []rrd.Sample, now time.Time, zero bool) []rrd.Sample {
	if s == nil {
		return buf
	}
	buf = buf[:0]
	for name, m := range s.Metrics {
		var v float64
		if !zero {
			v = m.Sum
		}
		buf = append(buf, rrd.Sample{Metric: name, Value: v})
	}
	slices.SortFunc(buf, func(a, b rrd.Sample) int { return strings.Compare(a.Metric, b.Metric) })
	_ = g.pool.UpdateHost(scope, SummaryHost, now, buf)
	return buf
}
