package gmetad

// The DOM reference pipeline. Before the zero-copy serve pipeline
// (render.go), every query response was assembled by deep-copying the
// selected subtree of the hash DOM into a throwaway gxml.Report and
// serializing the copy. That pipeline lives on here, verbatim except
// that soft-state ages now come from the snapshot (sourceData.age)
// instead of the wall clock, as:
//
//   - the equivalence oracle: render_test.go proves the streaming
//     renderer byte-identical to this one across the query corpus;
//   - the baseline the render benchmark measures the new pipeline
//     against;
//   - the public Report API, which hands callers a mutable tree.
//
// Serve-path code must not call into this file for non-history queries
// (the nocopyserve lint rule enforces it); reference.go itself is
// exempt by name.

import (
	"fmt"

	"ganglia/internal/gxml"
	"ganglia/internal/query"
)

// historyReport answers a ?filter=history query as a Report DOM: the
// history engine (history.go) resolves the series, and this wrap is the
// tree form for Report's callers and the oracle the streaming history
// writer is tested byte-identical against.
func (g *Gmetad) historyReport(q *query.Query) (*gxml.Report, error) {
	series, err := g.historySeriesFor(q)
	if err != nil {
		return nil, err
	}
	return &gxml.Report{
		Version:   gxml.Version,
		Source:    "gmetad",
		Histories: toHistoryElems(series),
	}, nil
}

// ReferenceReport answers one query by building a gxml.Report DOM —
// the paper's §2.3 query engine in its original deep-copy form.
// Resolution cost is one hash lookup per literal path segment;
// serialization cost is proportional to the subtree selected, but every
// response allocates its own aged copy of that subtree, which is what
// the streaming pipeline exists to avoid. History queries are not
// handled here; Report dispatches them to the archive reader.
func (g *Gmetad) ReferenceReport(q *query.Query) (*gxml.Report, error) {
	now := g.cfg.Clock.Now()
	rep := &gxml.Report{Version: gxml.Version, Source: "gmetad"}

	self := &gxml.Grid{
		Name:      g.cfg.GridName,
		Authority: g.cfg.Authority,
		LocalTime: now.Unix(),
	}
	rep.Grids = []*gxml.Grid{self}

	switch q.Depth() {
	case 0:
		g.fillHealth(self)
		if q.Filter == query.FilterSummary {
			self.Summary = g.Summary()
			return rep, nil
		}
		g.fillRoot(self)
		return rep, nil
	case 1:
		return rep, g.fillSource(self, q)
	case 2, 3:
		return rep, g.fillHost(self, q)
	}
	return nil, fmt.Errorf("gmetad: unsupported query depth %d", q.Depth())
}

// fillHealth attaches per-source degradation records to the root grid.
func (g *Gmetad) fillHealth(self *gxml.Grid) {
	self.Health = append(self.Health, collectHealth(g.order)...)
}

// fillRoot builds the full root report. Its shape is the heart of the
// two designs: local clusters appear at full resolution in both, but
// remote grids appear as O(m) summaries in N-level mode versus full
// recursive detail in 1-level mode.
func (g *Gmetad) fillRoot(self *gxml.Grid) {
	for _, slot := range g.order {
		data, _ := slot.snapshot()
		if data == nil {
			continue
		}
		switch {
		case data.kind == SourceGmond:
			for _, cname := range data.clusterOrder {
				self.Clusters = append(self.Clusters, agedCluster(data.clusters[cname], data.age))
			}
		case g.cfg.Mode == NLevel:
			self.Grids = append(self.Grids, summaryGrid(data))
		default: // OneLevel: the union of the child's data, full detail
			for _, child := range data.grids {
				self.Grids = append(self.Grids, agedGrid(child, data.age))
			}
		}
	}
}

// fillSource answers depth-1 queries: /source.
func (g *Gmetad) fillSource(self *gxml.Grid, q *query.Query) error {
	m := q.Segments[0]
	found := false

	appendSource := func(slot *sourceSlot) {
		data, _ := slot.snapshot()
		if data == nil {
			return
		}
		switch {
		case data.kind == SourceGmond:
			for _, cname := range data.clusterOrder {
				c := data.clusters[cname]
				if q.Filter == query.FilterSummary {
					self.Clusters = append(self.Clusters, summaryCluster(c))
				} else {
					self.Clusters = append(self.Clusters, agedCluster(c, data.age))
				}
				found = true
			}
		case g.cfg.Mode == NLevel || q.Filter == query.FilterSummary:
			self.Grids = append(self.Grids, summaryGrid(data))
			found = true
		default:
			for _, child := range data.grids {
				self.Grids = append(self.Grids, agedGrid(child, data.age))
				found = true
			}
		}
	}

	appendCluster := func(data *sourceData, c *clusterData) {
		if q.Filter == query.FilterSummary {
			self.Clusters = append(self.Clusters, summaryCluster(c))
		} else {
			self.Clusters = append(self.Clusters, agedCluster(c, data.age))
		}
		found = true
	}

	if !m.IsRegex() {
		// Literal: one hash lookup at the source level; if the name is
		// not a direct source, fall back to the flattened cluster
		// index (clusters nested inside 1-level child grids).
		if slot, ok := g.slots[m.Name()]; ok {
			appendSource(slot)
		} else if data, c := g.findCluster(m.Name()); c != nil {
			appendCluster(data, c)
		}
	} else {
		seen := map[string]bool{}
		for _, slot := range g.order {
			if m.Match(slot.cfg.Name) {
				appendSource(slot)
				data, _ := slot.snapshot()
				if data != nil {
					for _, cname := range data.clusterOrder {
						seen[cname] = true
					}
				}
				seen[slot.cfg.Name] = true
			}
		}
		// Also match nested clusters not already covered.
		for _, slot := range g.order {
			data, _ := slot.snapshot()
			if data == nil {
				continue
			}
			for _, cname := range data.clusterOrder {
				if seen[cname] || !m.Match(cname) {
					continue
				}
				seen[cname] = true
				appendCluster(data, data.clusters[cname])
			}
		}
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNotFound, q.String())
	}
	return nil
}

// fillHost answers depth-2 and depth-3 queries: /cluster/host[/metric].
func (g *Gmetad) fillHost(self *gxml.Grid, q *query.Query) error {
	cm, hm := q.Segments[0], q.Segments[1]
	if cm.IsRegex() {
		return fmt.Errorf("%w: regex cluster segments are only supported at depth 1", ErrNotFound)
	}
	data, c := g.findCluster(cm.Name())
	if c == nil {
		return fmt.Errorf("%w: cluster %s", ErrNotFound, cm.Name())
	}
	age := data.age

	out := &gxml.Cluster{
		Name:      c.meta.Name,
		Owner:     c.meta.Owner,
		URL:       c.meta.URL,
		LocalTime: c.meta.LocalTime,
	}
	appendHost := func(h *gxml.Host) error {
		ah := agedHost(h, age)
		if q.Depth() == 3 {
			mm := q.Segments[2]
			kept := ah.Metrics[:0]
			for _, m := range ah.Metrics {
				if mm.Match(m.Name) {
					kept = append(kept, m)
				}
			}
			ah.Metrics = kept
			if len(kept) == 0 {
				return fmt.Errorf("%w: metric %s on %s", ErrNotFound, mm.Name(), h.Name)
			}
		}
		out.Hosts = append(out.Hosts, ah)
		return nil
	}

	if !hm.IsRegex() {
		h, ok := c.hosts[hm.Name()]
		if !ok {
			return fmt.Errorf("%w: host %s in %s", ErrNotFound, hm.Name(), cm.Name())
		}
		if err := appendHost(h); err != nil {
			return err
		}
	} else {
		for _, name := range c.order {
			if hm.Match(name) {
				// At depth 3 a missing metric on one regex-matched
				// host is not an error; just omit the host.
				if err := appendHost(c.hosts[name]); err != nil && q.Depth() != 3 {
					return err
				}
			}
		}
		if len(out.Hosts) == 0 {
			return fmt.Errorf("%w: no host matches %s in %s", ErrNotFound, hm.Name(), cm.Name())
		}
	}
	self.Clusters = append(self.Clusters, out)
	return nil
}

// summaryGrid re-reports a remote source as its O(m) summary plus the
// authority pointer to the child holding full resolution.
func summaryGrid(data *sourceData) *gxml.Grid {
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
	return &gxml.Grid{
		Name:      name,
		Authority: authority,
		LocalTime: data.localtime,
		Summary:   data.summaryOf().Clone(),
	}
}

// summaryCluster serves the local cluster-summary filter (§2.3.2), the
// optimization that lets a viewer switch between a high-level overview
// and the full-resolution view of a very large cluster.
func summaryCluster(c *clusterData) *gxml.Cluster {
	return &gxml.Cluster{
		Name:      c.meta.Name,
		Owner:     c.meta.Owner,
		URL:       c.meta.URL,
		LocalTime: c.meta.LocalTime,
		Summary:   c.summaryOf().Clone(),
	}
}

// agedCluster deep-copies a cluster with TN values advanced by age, so
// a stale snapshot (e.g. an unreachable source) presents honestly old
// data instead of eternally fresh values.
func agedCluster(c *clusterData, age uint32) *gxml.Cluster {
	out := &gxml.Cluster{
		Name:      c.meta.Name,
		Owner:     c.meta.Owner,
		URL:       c.meta.URL,
		LocalTime: c.meta.LocalTime,
		Hosts:     make([]*gxml.Host, 0, len(c.order)),
	}
	for _, name := range c.order {
		out.Hosts = append(out.Hosts, agedHost(c.hosts[name], age))
	}
	return out
}

func agedHost(h *gxml.Host, age uint32) *gxml.Host {
	out := &gxml.Host{
		Name:     h.Name,
		IP:       h.IP,
		Reported: h.Reported,
		TN:       h.TN + age,
		TMAX:     h.TMAX,
		DMAX:     h.DMAX,
		Metrics:  append(h.Metrics[:0:0], h.Metrics...),
	}
	for i := range out.Metrics {
		out.Metrics[i].TN += age
	}
	return out
}

// agedGrid deep-copies a grid subtree with TN aging (1-level mode
// re-serves entire child trees).
func agedGrid(g *gxml.Grid, age uint32) *gxml.Grid {
	out := &gxml.Grid{
		Name:      g.Name,
		Authority: g.Authority,
		LocalTime: g.LocalTime,
	}
	if g.Summary != nil {
		out.Summary = g.Summary.Clone()
	}
	for _, c := range g.Clusters {
		cd := &gxml.Cluster{
			Name: c.Name, Owner: c.Owner, URL: c.URL, LocalTime: c.LocalTime,
		}
		if c.Summary != nil && len(c.Hosts) == 0 {
			cd.Summary = c.Summary.Clone()
		}
		for _, h := range c.Hosts {
			cd.Hosts = append(cd.Hosts, agedHost(h, age))
		}
		out.Clusters = append(out.Clusters, cd)
	}
	for _, child := range g.Grids {
		out.Grids = append(out.Grids, agedGrid(child, age))
	}
	return out
}
