package gmetad

import (
	"errors"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/query"
	"ganglia/internal/summary"
)

// ErrNotFound is returned by Report when the query path names no known
// source, host or metric.
var ErrNotFound = errors.New("gmetad: query path not found")

// Report answers one query from the in-memory hash DOM — the paper's
// §2.3 query engine — as a mutable gxml.Report tree. History queries
// read the round-robin archives; everything else goes through the DOM
// reference pipeline. The serve path does not come here for live
// queries: it streams cached per-source fragments instead (render.go),
// which this API remains the equivalence oracle for.
func (g *Gmetad) Report(q *query.Query) (*gxml.Report, error) {
	switch q.Filter {
	case query.FilterHistory:
		return g.historyReport(q)
	case query.FilterStream, query.FilterStreamSummary, query.FilterWatch:
		// Subscriptions and long-polls are connection protocols; there
		// is no single Report tree to return for them.
		return nil, errors.New("gmetad: Report does not serve " + q.Filter.String() + " queries")
	}
	return g.ReferenceReport(q) //lint:allow nocopyserve Report is the public DOM API, not the serve path
}

// collectHealth reads each slot's health state under its lock: one
// SOURCE_HEALTH record per source, so "this branch is dark and has been
// since 14:02, via this replica, for this reason" travels with depth-0
// responses instead of hiding in the daemon's logs. Health transitions
// bump the poll epoch, so the response cache never serves a stale
// status.
func collectHealth(slots []*sourceSlot) []*gxml.SourceHealth {
	out := make([]*gxml.SourceHealth, 0, len(slots))
	for _, slot := range slots {
		slot.mu.RLock()
		sh := &gxml.SourceHealth{
			Name:       slot.cfg.Name,
			Status:     "up",
			ActiveAddr: slot.activeAddr,
		}
		if slot.failed {
			sh.Status = "down"
			if !slot.downSince.IsZero() {
				sh.DownSince = slot.downSince.Unix()
			}
			if slot.lastErr != nil {
				sh.LastError = slot.lastErr.Error()
			}
		}
		slot.mu.RUnlock()
		out = append(out, sh)
	}
	return out
}

// Summary returns the whole-tree reduction: the O(m) answer this node
// gives its own parent in the N-level design. It folds each source's
// current reduction in source-name order on every call, so the SUM
// digits are a function of the current snapshots alone — not of the
// order or history of their publishes, nor of the configured source
// order. The response cache keeps the rendered summary answer for the
// rest of the epoch, so a parent polling once a round costs one fold.
// In 1-level mode, whose sources skip poll-time summarization, each
// source's reduction is computed here. The returned summary is new and
// belongs to the caller.
func (g *Gmetad) Summary() *summary.Summary {
	total := summary.New()
	for _, slot := range g.byName {
		if data, _ := slot.snapshot(); data != nil {
			total.Merge(data.summaryOf())
		}
	}
	return total
}

// findCluster resolves a cluster name through the per-source flattened
// indexes, in source order.
func (g *Gmetad) findCluster(name string) (*sourceData, *clusterData) {
	for _, slot := range g.order {
		data, _ := slot.snapshot()
		if data == nil {
			continue
		}
		if c, ok := data.clusters[name]; ok {
			return data, c
		}
	}
	return nil, nil
}

// ageSince converts the gap between re-age time and poll time to whole
// seconds — the value baked into a re-published snapshot's age.
func ageSince(now, polled time.Time) uint32 {
	d := now.Sub(polled)
	if d < 0 {
		return 0
	}
	return uint32(d / time.Second)
}
