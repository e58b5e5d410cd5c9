package gmetad

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"ganglia/internal/gxml"
	"ganglia/internal/query"
)

// This file is the zero-copy serve pipeline. The legacy pipeline (kept
// in reference.go as the equivalence oracle) answered a query by
// deep-copying the selected subtree into a fresh gxml.Report DOM —
// O(C·H·m) allocation per cache miss — and re-rendering it. Here a
// response is assembled in three layers, none of which copies the hash
// DOM:
//
//  1. Per-source fragments: a snapshot's subtree is rendered to bytes
//     by the snapshot's first reader (fragment) and spliced into every
//     response that wants it; the poll path renders nothing.
//  2. renderBody streams a query's answer — fragment splices for whole
//     sources, direct snapshot-to-bytes rendering for narrower
//     selections — into one buffer, presized from the fragment sizes.
//  3. writeAnswer stitches a small per-request header (the root GRID
//     open tag carries the serve-time LOCALTIME), the body, and a
//     constant footer onto the connection. Bodies are cached per poll
//     epoch; a cache hit costs two buffer copies and no allocation.

// respFooter closes every query response: the root grid and document.
const respFooter = "</GRID>\n</GANGLIA_XML>\n"

// headerPool recycles the per-request header scratch buffers so cache
// hits allocate nothing.
var headerPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// buildHeaderPrefix precomputes everything of a response header up to
// the root grid's LOCALTIME value: the XML declaration, optionally the
// DTD, the GANGLIA_XML open tag, and the root GRID open tag cut at
// `LOCALTIME="`. Per request only the current Unix second and `">` are
// appended.
func buildHeaderPrefix(gridName, authority string, emitDTD bool) []byte {
	b := []byte(gxml.XMLDecl)
	if emitDTD {
		b = append(b, gxml.DTD...)
	}
	b = append(b, `<GANGLIA_XML VERSION="`...)
	b = gxml.AppendEscaped(b, gxml.Version)
	b = append(b, `" SOURCE="gmetad">`...)
	b = append(b, '\n')
	b = append(b, `<GRID NAME="`...)
	b = gxml.AppendEscaped(b, gridName)
	b = append(b, `" AUTHORITY="`...)
	b = gxml.AppendEscaped(b, authority)
	b = append(b, `" LOCALTIME="`...)
	return b
}

// fragment returns data's fragment, rendering it if data has not been
// read before. The render is render work; within is the phase counter
// the reader is itself timed into (nil if none), from which the render's
// time is taken back so Work counts it once.
func (g *Gmetad) fragment(data *sourceData, within *atomic.Int64) *sourceFragment {
	c := data.frag
	c.once.Do(func() {
		d := timed(&g.acct.render, func() {
			c.frag.Store(renderFragment(data, g.cfg.Mode, c.prev.Load()))
		})
		if within != nil {
			within.Add(-int64(d))
		}
		c.prev.Store(nil)
		g.acct.fragmentRenders.Add(1)
	})
	return c.frag.Load()
}

// renderFragment renders one snapshot's subtree to a fragment, with the
// snapshot's age baked into every TN. Its one caller is the fragment
// cell's build.
//
// prev is the slot's most recent built fragment (nil for none). A host
// the new snapshot shares with it by pointer — the ingest memo found its
// element unchanged — and rendered at the same age is not serialized
// again: its bytes are copied from prev's buffer, so a snapshot's render
// cost follows what changed in it.
func renderFragment(data *sourceData, mode Mode, prev *sourceFragment) *sourceFragment {
	f := &sourceFragment{age: data.age}
	r := fragmentRenderer{f: f, prev: prev}
	r.buf.Grow(prev.size())
	if prev != nil && prev.age != data.age {
		r.prev = nil // bytes rendered at another age carry other TNs
	}
	r.w = gxml.NewWriter(&r.buf)
	switch {
	case data.kind == SourceGmond:
		f.spans = make([]clusterSpan, 0, len(data.clusterOrder))
		for _, cname := range data.clusterOrder {
			c := data.clusters[cname]
			r.openCluster(&c.meta, len(c.order))
			for _, hname := range c.order {
				r.host(c.hosts[hname])
			}
			r.w.CloseCluster()
		}
		f.clusters = r.buf.Bytes()
	case mode == NLevel:
		writeSummaryGrid(r.w, data)
		f.grids = r.buf.Bytes()
	default: // OneLevel: the union of the child's data, full detail
		for _, child := range data.grids {
			r.grid(child)
		}
		f.grids = r.buf.Bytes()
	}
	// A bytes.Buffer destination cannot fail; Flush is a formality.
	_ = r.w.Flush()
	return f
}

// fragmentRenderer writes one fragment, recording cluster and host byte
// spans as it goes: the writer has no internal buffering, so buf.Len()
// is exact after every element. The spans make the fragment diffable by
// the subscription feed and reusable by the next render at no extra
// rendering cost.
type fragmentRenderer struct {
	buf bytes.Buffer
	w   *gxml.Writer
	f   *sourceFragment
	// prev is the fragment to copy unchanged hosts from; pc is its span
	// of the cluster being written and ph the cursor into pc's hosts
	// (both fragments list a cluster's hosts in name order).
	prev *sourceFragment
	pc   *clusterSpan
	ph   int
}

// openCluster writes a CLUSTER open tag and starts its span.
func (r *fragmentRenderer) openCluster(c *gxml.Cluster, hosts int) {
	cs := clusterSpan{name: c.Name, hosts: make([]hostSpan, 0, hosts)}
	cs.open.off = r.buf.Len()
	r.w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
	cs.open.end = r.buf.Len()
	r.f.spans = append(r.f.spans, cs)
	r.pc, r.ph = r.prev.cluster(len(r.f.spans)-1, c.Name), 0
}

// host writes one HOST element of the open cluster — by copy when the
// previous fragment rendered this very host — and records its span.
func (r *fragmentRenderer) host(h *gxml.Host) {
	hs := hostSpan{name: h.Name, host: h}
	hs.b.off = r.buf.Len()
	if ps := r.pc.host(&r.ph, h.Name); ps != nil && ps.host == h {
		r.buf.Write(r.prev.buffer()[ps.b.off:ps.b.end])
	} else {
		r.w.HostAged(h, r.f.age)
	}
	hs.b.end = r.buf.Len()
	cs := &r.f.spans[len(r.f.spans)-1]
	cs.hosts = append(cs.hosts, hs)
}

// grid writes a child's grid tree exactly as gxml.Writer.GridAged does,
// routing full-resolution clusters through the span-recording path.
func (r *fragmentRenderer) grid(g *gxml.Grid) {
	if g.Summary != nil && len(g.Clusters) == 0 && len(g.Grids) == 0 {
		r.w.GridAged(g, r.f.age)
		return
	}
	r.w.OpenGrid(g.Name, g.Authority, g.LocalTime)
	for _, c := range g.Clusters {
		if len(c.Hosts) == 0 && c.Summary != nil {
			r.w.Cluster(c)
			continue
		}
		r.openCluster(c, len(c.Hosts))
		for _, h := range c.Hosts {
			r.host(h)
		}
		r.w.CloseCluster()
	}
	for _, child := range g.Grids {
		r.grid(child)
	}
	r.w.CloseGrid()
}

// writeClusterFull streams one cluster at full resolution with aged
// TN values — the zero-copy equivalent of serializing agedCluster's
// deep copy (which always drops the summary, so even a host-less
// cluster is written in full-resolution form).
func writeClusterFull(w *gxml.Writer, c *clusterData, age uint32) {
	w.OpenCluster(c.meta.Name, c.meta.Owner, c.meta.URL, c.meta.LocalTime)
	for _, name := range c.order {
		w.HostAged(c.hosts[name], age)
	}
	w.CloseCluster()
}

// writeSummaryCluster streams the cluster-summary filter form (§2.3.2).
func writeSummaryCluster(w *gxml.Writer, c *clusterData) {
	w.OpenCluster(c.meta.Name, c.meta.Owner, c.meta.URL, c.meta.LocalTime)
	w.SummaryBody(c.summaryOf())
	w.CloseCluster()
}

// writeSummaryGrid streams a remote source as its O(m) summary plus the
// authority pointer to the child holding full resolution.
func writeSummaryGrid(w *gxml.Writer, data *sourceData) {
	name := data.name
	authority := data.authority
	if len(data.grids) > 0 {
		if data.grids[0].Name != "" {
			name = data.grids[0].Name
		}
		if data.grids[0].Authority != "" {
			authority = data.grids[0].Authority
		}
	}
	w.OpenGrid(name, authority, data.localtime)
	w.SummaryBody(data.summaryOf())
	w.CloseGrid()
}

// renderBody renders the inside of the root GRID element for q: health
// records, then the selected subtree. Errors are decided before any
// byte is emitted, so a non-nil error always comes with an empty body.
func (g *Gmetad) renderBody(q *query.Query) ([]byte, error) {
	switch q.Depth() {
	case 0:
		return g.renderRoot(q.Filter == query.FilterSummary)
	case 1:
		return g.renderSource(q)
	case 2, 3:
		return g.renderHost(q)
	}
	return nil, fmt.Errorf("gmetad: unsupported query depth %d", q.Depth())
}

// renderRoot answers depth-0 queries: the whole tree, as health records
// followed by every gmond source's clusters and then every gmetad
// source's grids (document order matches the reference DOM, which
// serializes all clusters before all grids).
func (g *Gmetad) renderRoot(summaryFilter bool) ([]byte, error) {
	slots := g.snapshotOrder()

	if summaryFilter {
		var buf bytes.Buffer
		w := gxml.NewWriter(&buf)
		g.renderHealth(w, slots)
		w.SummaryBody(g.treeSummary())
		return buf.Bytes(), w.Flush()
	}

	// One fragment per slot, taken once; presize the buffer from the
	// fragment sizes so splicing large trees does not reallocate.
	frags := make([]*sourceFragment, 0, len(slots))
	size := 256
	for _, slot := range slots {
		if data, _ := slot.snapshot(); data != nil {
			f := g.fragment(data, &g.acct.serve)
			frags = append(frags, f)
			size += f.size()
		}
	}

	var buf bytes.Buffer
	buf.Grow(size)
	w := gxml.NewWriter(&buf)
	g.renderHealth(w, slots)
	for _, f := range frags {
		w.Raw(f.clusters)
	}
	for _, f := range frags {
		w.Raw(f.grids)
	}
	return buf.Bytes(), w.Flush()
}

// renderHealth streams the per-source SOURCE_HEALTH records.
func (g *Gmetad) renderHealth(w *gxml.Writer, slots []*sourceSlot) {
	if g.cfg.DisableHealthXML {
		return
	}
	for _, sh := range collectHealth(slots) {
		w.SourceHealthElem(sh)
	}
}

// renderSource answers depth-1 queries: /source. Clusters and grids are
// streamed into separate buffers because the DOM serialized all of a
// response's CLUSTER elements before any GRID element, regardless of
// the order selections were made in; the two buffers are concatenated
// at the end to preserve that document order.
func (g *Gmetad) renderSource(q *query.Query) ([]byte, error) {
	m := q.Segments[0]
	var cbuf, gbuf bytes.Buffer
	wc := gxml.NewWriter(&cbuf) // CLUSTER elements
	wg := gxml.NewWriter(&gbuf) // GRID elements
	found := false

	emitSource := func(data *sourceData) {
		if data == nil {
			return
		}
		switch {
		case data.kind == SourceGmond:
			if len(data.clusterOrder) == 0 {
				return
			}
			if q.Filter == query.FilterSummary {
				for _, cname := range data.clusterOrder {
					writeSummaryCluster(wc, data.clusters[cname])
				}
			} else {
				// All the source's clusters at once: exactly the
				// fragment's cluster section.
				wc.Raw(g.fragment(data, &g.acct.serve).clusters)
			}
			found = true
		case g.cfg.Mode == NLevel || q.Filter == query.FilterSummary:
			writeSummaryGrid(wg, data)
			found = true
		default:
			if len(data.grids) == 0 {
				return
			}
			wg.Raw(g.fragment(data, &g.acct.serve).grids)
			found = true
		}
	}

	emitCluster := func(data *sourceData, c *clusterData) {
		if q.Filter == query.FilterSummary {
			writeSummaryCluster(wc, c)
		} else {
			writeClusterFull(wc, c, data.age)
		}
		found = true
	}

	if !m.IsRegex() {
		// Literal: one hash lookup at the source level; if the name is
		// not a direct source, fall back to the flattened cluster
		// index (clusters nested inside 1-level child grids).
		g.mu.RLock()
		slot, ok := g.slots[m.Name()]
		g.mu.RUnlock()
		if ok {
			data, _ := slot.snapshot()
			emitSource(data)
		} else if data, c := g.findCluster(m.Name()); c != nil {
			emitCluster(data, c)
		}
	} else {
		// One snapshot per slot, taken once: the source pass, the seen
		// set and the nested-cluster pass must all see the same
		// generation, or a publish landing between them would mix two
		// generations of one source into one answer.
		slots := g.snapshotOrder()
		snaps := make([]*sourceData, len(slots))
		for i, slot := range slots {
			snaps[i], _ = slot.snapshot()
		}
		seen := map[string]bool{}
		for i, slot := range slots {
			if m.Match(slot.cfg.Name) {
				emitSource(snaps[i])
				if snaps[i] != nil {
					for _, cname := range snaps[i].clusterOrder {
						seen[cname] = true
					}
				}
				seen[slot.cfg.Name] = true
			}
		}
		// Also match nested clusters not already covered.
		for _, data := range snaps {
			if data == nil {
				continue
			}
			for _, cname := range data.clusterOrder {
				if seen[cname] || !m.Match(cname) {
					continue
				}
				seen[cname] = true
				emitCluster(data, data.clusters[cname])
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, q.String())
	}
	if err := wc.Flush(); err != nil {
		return nil, err
	}
	if err := wg.Flush(); err != nil {
		return nil, err
	}
	if gbuf.Len() == 0 {
		return cbuf.Bytes(), nil
	}
	cbuf.Grow(gbuf.Len())
	_, _ = cbuf.Write(gbuf.Bytes())
	return cbuf.Bytes(), nil
}

// renderHost answers depth-2 and depth-3 queries: /cluster/host[/metric].
// Unlike the DOM pipeline, which could abort a half-built tree, the
// streaming form validates each selection before emitting it — a host
// is opened only after its metric filter is known to keep something.
func (g *Gmetad) renderHost(q *query.Query) ([]byte, error) {
	cm, hm := q.Segments[0], q.Segments[1]
	if cm.IsRegex() {
		return nil, fmt.Errorf("%w: regex cluster segments are only supported at depth 1", ErrNotFound)
	}
	data, c := g.findCluster(cm.Name())
	if c == nil {
		return nil, fmt.Errorf("%w: cluster %s", ErrNotFound, cm.Name())
	}
	age := data.age

	var mm *query.Matcher
	if q.Depth() == 3 {
		mm = &q.Segments[2]
	}
	countMetrics := func(h *gxml.Host) int {
		if mm == nil {
			return len(h.Metrics)
		}
		n := 0
		for i := range h.Metrics {
			if mm.Match(h.Metrics[i].Name) {
				n++
			}
		}
		return n
	}

	var buf bytes.Buffer
	w := gxml.NewWriter(&buf)
	opened := false
	emitHost := func(h *gxml.Host) {
		if !opened {
			w.OpenCluster(c.meta.Name, c.meta.Owner, c.meta.URL, c.meta.LocalTime)
			opened = true
		}
		if mm == nil {
			w.HostAged(h, age)
			return
		}
		w.OpenHostAged(h, age)
		for i := range h.Metrics {
			if mm.Match(h.Metrics[i].Name) {
				w.MetricAged(&h.Metrics[i], age)
			}
		}
		w.CloseHost()
	}

	if !hm.IsRegex() {
		h, ok := c.hosts[hm.Name()]
		if !ok {
			return nil, fmt.Errorf("%w: host %s in %s", ErrNotFound, hm.Name(), cm.Name())
		}
		if mm != nil && countMetrics(h) == 0 {
			return nil, fmt.Errorf("%w: metric %s on %s", ErrNotFound, mm.Name(), h.Name)
		}
		emitHost(h)
	} else {
		for _, name := range c.order {
			if !hm.Match(name) {
				continue
			}
			h := c.hosts[name]
			// At depth 3 a missing metric on one regex-matched host is
			// not an error; just omit the host.
			if mm != nil && countMetrics(h) == 0 {
				continue
			}
			emitHost(h)
		}
		if !opened {
			return nil, fmt.Errorf("%w: no host matches %s in %s", ErrNotFound, hm.Name(), cm.Name())
		}
	}
	w.CloseCluster()
	return buf.Bytes(), w.Flush()
}

// writeAnswer resolves q through the response cache (when enabled),
// rendering on a miss, and writes header + body + footer to w. A
// non-nil error means nothing was written and the caller should emit
// an error comment instead; write failures past the first byte are the
// connection's problem, not the query's.
func (g *Gmetad) writeAnswer(w io.Writer, q *query.Query) error {
	var body []byte
	if g.cache != nil {
		// The epoch is read before the snapshots: a body can only ever
		// be stamped with an epoch at or below its data's freshness — a
		// racing re-poll invalidates it, never the reverse.
		epoch := g.epoch.Load()
		key := q.Key()
		if b, ok := g.cache.get(epoch, key); ok {
			g.acct.cacheHits.Add(1)
			body = b
		} else {
			g.acct.cacheMisses.Add(1)
			var err error
			body, err = g.renderBody(q)
			if err != nil {
				return err
			}
			g.acct.cacheEvictedBytes.Add(g.cache.put(epoch, key, body))
		}
	} else {
		var err error
		body, err = g.renderBody(q)
		if err != nil {
			return err
		}
	}

	hp := headerPool.Get().(*[]byte)
	hdr := append((*hp)[:0], g.hdrPrefix...)
	hdr = strconv.AppendInt(hdr, g.cfg.Clock.Now().Unix(), 10)
	hdr = append(hdr, '"', '>', '\n')
	_, err := w.Write(hdr)
	*hp = hdr
	headerPool.Put(hp)
	if err != nil {
		return nil
	}
	if _, err := w.Write(body); err != nil {
		return nil
	}
	_, _ = w.Write(footerBytes)
	return nil
}

var footerBytes = []byte(respFooter)

// WriteAnswer renders the full response to a query into w — the serve
// path without the socket, accounted as serve work like a query-port
// answer. Benchmarks and tools use it to measure the render pipeline in
// isolation. History queries stream from the archive pool (history.go),
// uncached; everything else goes through the response cache and
// fragment splicing.
func (g *Gmetad) WriteAnswer(w io.Writer, q *query.Query) error {
	switch q.Filter {
	case query.FilterStream, query.FilterStreamSummary, query.FilterWatch:
		// Subscriptions and long-polls are connection protocols, not
		// renderings; they only exist on the interactive port.
		return fmt.Errorf("gmetad: WriteAnswer does not serve %s queries", q.Filter)
	}
	var err error
	timed(&g.acct.serve, func() {
		if q.Filter == query.FilterHistory {
			err = g.writeHistoryAnswer(w, q)
		} else {
			err = g.writeAnswer(w, q)
		}
	})
	return err
}
