package gxml

import (
	"bufio"
	"bytes"
	"io"
	"strconv"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// XMLDecl is the declaration opening every Ganglia XML document.
const XMLDecl = `<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>` + "\n"

// sink is the writer contract the serializer needs. *bufio.Writer and
// *bytes.Buffer both satisfy it; the latter lets render-to-memory
// callers (fragment caches, response caches) skip the bufio layer and
// its final copy entirely.
type sink interface {
	Write([]byte) (int, error)
	WriteString(string) (int, error)
}

// Writer serializes report trees and subtrees. Destinations that are
// already in-memory buffers are written directly; anything else is
// wrapped in a buffered writer. The first error is latched, so callers
// emit a whole document and check once.
type Writer struct {
	out sink
	bw  *bufio.Writer // non-nil when out buffers an underlying io.Writer
	err error
	// scratch backs numeric attribute formatting. A function-local
	// buffer would escape through the sink interface and cost one heap
	// allocation per attribute — per POINT on the history path.
	scratch [40]byte
}

// NewWriter returns a Writer on w. A *bytes.Buffer destination is
// written without intermediate buffering.
func NewWriter(w io.Writer) *Writer {
	if buf, ok := w.(*bytes.Buffer); ok {
		return &Writer{out: buf}
	}
	bw := bufio.NewWriterSize(w, 32*1024)
	return &Writer{out: bw, bw: bw}
}

// Flush drains the buffer and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.bw != nil {
		return w.bw.Flush()
	}
	return nil
}

// Raw writes pre-serialized bytes verbatim: the splice operation behind
// gmetad's per-snapshot fragments, where a source's subtree is rendered
// once per snapshot (by its first reader) and stitched into many
// responses.
func (w *Writer) Raw(b []byte) {
	if w.err == nil {
		_, w.err = w.out.Write(b)
	}
}

func (w *Writer) str(s string) {
	if w.err == nil {
		_, w.err = w.out.WriteString(s)
	}
}

func (w *Writer) attr(name, value string) {
	w.str(" ")
	w.str(name)
	w.str(`="`)
	w.escaped(value)
	w.str(`"`)
}

func (w *Writer) attrInt(name string, v int64) {
	w.str(" ")
	w.str(name)
	w.str(`="`)
	if w.err == nil {
		_, w.err = w.out.Write(strconv.AppendInt(w.scratch[:0], v, 10))
	}
	w.str(`"`)
}

func (w *Writer) attrFloat(name string, v float64) {
	w.str(" ")
	w.str(name)
	w.str(`="`)
	if w.err == nil {
		_, w.err = w.out.Write(strconv.AppendFloat(w.scratch[:0], v, 'f', -1, 64))
	}
	w.str(`"`)
}

// escaped writes s with the five XML attribute metacharacters escaped,
// plus literal whitespace controls as character references — a raw
// newline inside an attribute (multi-address dial errors join with
// newlines) would otherwise be normalized to a space by conformant
// parsers and break line-oriented consumers.
func (w *Writer) escaped(s string) {
	if w.err != nil {
		return
	}
	last := 0
	for i := 0; i < len(s); i++ {
		esc := escapeOf(s[i])
		if esc == "" {
			continue
		}
		w.str(s[last:i])
		w.str(esc)
		last = i + 1
	}
	w.str(s[last:])
}

// escapeOf returns the character reference for b, or "" when b passes
// through unescaped.
func escapeOf(b byte) string {
	switch b {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '"':
		return "&quot;"
	case '\'':
		return "&apos;"
	case '\n':
		return "&#10;"
	case '\r':
		return "&#13;"
	case '\t':
		return "&#9;"
	}
	return ""
}

// AppendEscaped appends s to dst with the attribute escaping the Writer
// applies, for callers that precompute header bytes.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		esc := escapeOf(s[i])
		if esc == "" {
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// WriteReport serializes a complete GANGLIA_XML document.
func WriteReport(dst io.Writer, r *Report) error {
	w := NewWriter(dst)
	w.Report(r)
	return w.Flush()
}

// RenderReport serializes a complete GANGLIA_XML document to a byte
// slice, for callers that reuse one rendering across many writes
// (gmetad's query-response cache serves the same bytes to every client
// of a poll epoch).
func RenderReport(r *Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Report emits a complete document.
func (w *Writer) Report(r *Report) {
	w.OpenDoc(r.Version, r.Source)
	for _, c := range r.Clusters {
		w.Cluster(c)
	}
	for _, g := range r.Grids {
		w.Grid(g)
	}
	for _, h := range r.Histories {
		w.HistoryElem(h)
	}
	w.CloseDoc()
}

// OpenDoc emits the XML declaration and the GANGLIA_XML open tag —
// the streaming entry point for answers composed element by element
// instead of through a Report tree. An empty version defaults to
// Version. Balance with CloseDoc.
func (w *Writer) OpenDoc(version, source string) {
	if version == "" {
		version = Version
	}
	w.str(XMLDecl)
	w.str("<GANGLIA_XML")
	w.attr("VERSION", version)
	w.attr("SOURCE", source)
	w.str(">\n")
}

// CloseDoc emits the GANGLIA_XML close tag.
func (w *Writer) CloseDoc() { w.str("</GANGLIA_XML>\n") }

// OpenGrid emits a GRID element's open tag. Callers emit the body
// (health, summary, or children) and balance with CloseGrid.
func (w *Writer) OpenGrid(name, authority string, localtime int64) {
	w.str("<GRID")
	w.attr("NAME", name)
	w.attr("AUTHORITY", authority)
	w.attrInt("LOCALTIME", localtime)
	w.str(">\n")
}

// CloseGrid emits a GRID element's close tag.
func (w *Writer) CloseGrid() { w.str("</GRID>\n") }

// Grid emits a GRID element. A grid with a non-nil Summary and no
// children is written in summary form; otherwise its clusters and
// nested grids are written recursively.
func (w *Writer) Grid(g *Grid) {
	w.OpenGrid(g.Name, g.Authority, g.LocalTime)
	for _, sh := range g.Health {
		w.SourceHealthElem(sh)
	}
	if g.Summary != nil && len(g.Clusters) == 0 && len(g.Grids) == 0 {
		w.SummaryBody(g.Summary)
	} else {
		for _, c := range g.Clusters {
			w.Cluster(c)
		}
		for _, child := range g.Grids {
			w.Grid(child)
		}
	}
	w.CloseGrid()
}

// GridAged emits a grid subtree with every host's soft-state TN values
// advanced by age, directly from the shared tree — the streaming
// equivalent of deep-copying the subtree through an aged clone and
// serializing the copy. Health records are not emitted: they belong to
// the serving daemon's own grid, not to re-served child trees.
func (w *Writer) GridAged(g *Grid, age uint32) {
	w.OpenGrid(g.Name, g.Authority, g.LocalTime)
	if g.Summary != nil && len(g.Clusters) == 0 && len(g.Grids) == 0 {
		w.SummaryBody(g.Summary)
	} else {
		for _, c := range g.Clusters {
			if len(c.Hosts) == 0 && c.Summary != nil {
				w.Cluster(c)
				continue
			}
			w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
			for _, h := range c.Hosts {
				w.HostAged(h, age)
			}
			w.CloseCluster()
		}
		for _, child := range g.Grids {
			w.GridAged(child, age)
		}
	}
	w.CloseGrid()
}

// OpenCluster emits a CLUSTER element's open tag; balance with
// CloseCluster.
func (w *Writer) OpenCluster(name, owner, url string, localtime int64) {
	w.str("<CLUSTER")
	w.attr("NAME", name)
	w.attr("OWNER", owner)
	w.attr("URL", url)
	w.attrInt("LOCALTIME", localtime)
	w.str(">\n")
}

// CloseCluster emits a CLUSTER element's close tag.
func (w *Writer) CloseCluster() { w.str("</CLUSTER>\n") }

// Cluster emits a CLUSTER element, in full-resolution form when Hosts
// is populated and summary form when only Summary is set.
func (w *Writer) Cluster(c *Cluster) {
	w.OpenCluster(c.Name, c.Owner, c.URL, c.LocalTime)
	if len(c.Hosts) == 0 && c.Summary != nil {
		w.SummaryBody(c.Summary)
	} else {
		for _, h := range c.Hosts {
			w.Host(h)
		}
	}
	w.CloseCluster()
}

// Host emits a HOST element with its metrics.
func (w *Writer) Host(h *Host) { w.HostAged(h, 0) }

// HostAged emits a HOST element with its metrics, the host's and every
// metric's TN advanced by age — soft-state aging applied during
// serialization instead of through a deep copy.
func (w *Writer) HostAged(h *Host, age uint32) {
	w.OpenHostAged(h, age)
	for i := range h.Metrics {
		w.MetricAged(&h.Metrics[i], age)
	}
	w.CloseHost()
}

// OpenHostAged emits a HOST open tag with TN advanced by age; balance
// with CloseHost. Callers that filter metrics (depth-3 queries) emit
// their own MetricAged selection between the two.
func (w *Writer) OpenHostAged(h *Host, age uint32) {
	w.str("<HOST")
	w.attr("NAME", h.Name)
	w.attr("IP", h.IP)
	w.attrInt("REPORTED", h.Reported)
	w.attrInt("TN", int64(h.TN+age))
	w.attrInt("TMAX", int64(h.TMAX))
	w.attrInt("DMAX", int64(h.DMAX))
	w.str(">\n")
}

// CloseHost emits a HOST element's close tag.
func (w *Writer) CloseHost() { w.str("</HOST>\n") }

// Metric emits a METRIC element.
func (w *Writer) Metric(m *metric.Metric) { w.MetricAged(m, 0) }

// MetricAged emits a METRIC element with TN advanced by age.
func (w *Writer) MetricAged(m *metric.Metric, age uint32) {
	w.str("<METRIC")
	w.attr("NAME", m.Name)
	w.attr("VAL", m.Val.Text())
	w.attr("TYPE", m.Val.Type().String())
	w.attr("UNITS", m.Units)
	w.attrInt("TN", int64(m.TN+age))
	w.attrInt("TMAX", int64(m.TMAX))
	w.attrInt("DMAX", int64(m.DMAX))
	w.attr("SLOPE", m.Slope.String())
	w.attr("SOURCE", m.Source)
	w.str("/>\n")
}

// SourceHealthElem emits a SOURCE_HEALTH element. DOWN_SINCE and
// LAST_ERROR are omitted for healthy sources, so the steady-state
// report stays compact.
func (w *Writer) SourceHealthElem(sh *SourceHealth) {
	w.str("<SOURCE_HEALTH")
	w.attr("NAME", sh.Name)
	w.attr("STATUS", sh.Status)
	w.attr("ACTIVE", sh.ActiveAddr)
	if sh.DownSince != 0 {
		w.attrInt("DOWN_SINCE", sh.DownSince)
	}
	if sh.LastError != "" {
		w.attr("LAST_ERROR", sh.LastError)
	}
	w.str("/>\n")
}

// SummaryBody emits the summary form shared by grids and clusters: one
// HOSTS tag followed by one METRICS tag per reduced metric, exactly the
// shape of the paper's fig 3 nested "ATTIC" grid.
func (w *Writer) SummaryBody(s *summary.Summary) {
	w.str("<HOSTS")
	w.attrInt("UP", int64(s.HostsUp))
	w.attrInt("DOWN", int64(s.HostsDown))
	w.str("/>\n")
	for _, name := range s.Names() {
		m := s.Metrics[name]
		w.str("<METRICS")
		w.attr("NAME", m.Name)
		w.attrFloat("SUM", m.Sum)
		w.attrInt("NUM", int64(m.Num))
		w.attr("TYPE", m.Type.String())
		w.attr("UNITS", m.Units)
		if m.SumSq != 0 {
			// Extension: the sum of squares restores the standard
			// deviation the paper's SUM/NUM reductions cannot express.
			// Peers that do not know the attribute ignore it.
			w.attrFloat("SUMSQ", m.SumSq)
		}
		w.str("/>\n")
	}
}
