package gxml

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// Handler receives streaming parse events. Nil callbacks are skipped,
// so a consumer subscribes only to the events it needs — gmetad's
// collector, for instance, builds its hash tables directly from these
// callbacks without materializing a document tree.
type Handler struct {
	StartReport func(version, source string)
	EndReport   func()

	StartGrid func(name, authority string, localtime int64)
	EndGrid   func()

	StartCluster func(name, owner, url string, localtime int64)
	EndCluster   func()

	// StartHost receives the host attributes; its metrics follow as
	// Metric events before EndHost, which is told the element's span:
	// doc[start:end] runs from the '<' of the open tag through the '>'
	// that closes the element.
	StartHost func(h Host)
	EndHost   func(start, end int)

	// OfferHost, when set, is called at each HOST element before anything
	// of it is tokenized: doc is the whole document and start the offset
	// of the element's '<'. A positive n declares doc[start:start+n] one
	// complete HOST element the consumer has taken care of (gmetad's
	// per-link host memo recognises elements it has parsed before); the
	// parser resumes behind it and fires no event for it. Otherwise the
	// element is parsed as usual.
	OfferHost func(doc []byte, start int) (n int)

	Metric func(m metric.Metric)

	// SummaryHosts and SummaryMetric deliver the summary form (HOSTS
	// and METRICS tags) of the enclosing grid or cluster.
	SummaryHosts  func(up, down uint32)
	SummaryMetric func(sm summary.Metric)

	// SourceHealth delivers the enclosing grid's per-source
	// degradation records (SOURCE_HEALTH tags).
	SourceHealth func(sh SourceHealth)

	// StartHistory receives a HISTORY element's attributes; its points
	// follow as HistoryPoint events before EndHistory.
	StartHistory func(h History)
	EndHistory   func()
	HistoryPoint func(p HistoryPoint)
}

// SyntaxError describes a malformed or mis-nested document.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("gxml: offset %d: %s", e.Offset, e.Msg)
}

// attr is one attribute of the tag being parsed. name aliases the
// document; value aliases it too unless it held an entity reference,
// in which case it aliases the parser's decode buffer. Both are dead
// once the next tag starts, so the element constructors copy out (or
// convert) whatever the handler keeps.
type attr struct {
	name  []byte
	value []byte
}

type parser struct {
	doc []byte
	// pos counts the bytes consumed; SyntaxError offsets report it.
	pos  int
	h    *Handler
	stk  []string
	skip int // depth inside an unknown element's subtree
	atts []attr
	dec  []byte // entity-decoded attribute values of the current tag
	// hostStart is the offset of the open HOST element's '<'.
	hostStart int
	// rootClosed records that a complete GANGLIA_XML element was seen
	// (including the self-closing form).
	rootClosed bool
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: int64(p.pos), Msg: fmt.Sprintf(format, args...)}
}

// eof fails at the end of input: every truncation error reports the
// document's length as its offset.
func (p *parser) eof(format string, args ...any) error {
	p.pos = len(p.doc)
	return p.errf(format, args...)
}

// ReadReport reads r to EOF into buf[:0], growing it as needed, and
// returns the bytes read together with any error other than EOF. It is
// the read-whole-report step in front of ParseBytes: callers bound r
// first (gmetad's MaxReportBytes cap), and a caller that keeps buf
// across calls downloads without allocating.
func ReadReport(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ParseStream reads one GANGLIA_XML document from r (which the caller
// has bounded) and parses it as ParseBytes does. A read error other
// than EOF is reported after whatever arrived has been parsed, unless
// the cut left a syntax error of its own.
func ParseStream(r io.Reader, h *Handler) error {
	doc, err := ReadReport(r, nil)
	return parse(doc, err, h)
}

// ParseBytes parses one GANGLIA_XML document held in memory, invoking
// h's callbacks as elements are encountered. It validates nesting
// against the Ganglia DTD and fails on truncated or malformed input.
// Unknown elements (and their subtrees) are skipped for forward
// compatibility. doc is only read, and nothing handed to h aliases it
// except through Handler.OfferHost.
func ParseBytes(doc []byte, h *Handler) error { return parse(doc, nil, h) }

func parse(doc []byte, readErr error, h *Handler) error {
	p := &parser{doc: doc, h: h}
	for {
		// The Ganglia dialect has no element text; tolerate and skip
		// whatever appears between tags (whitespace in practice).
		i := bytes.IndexByte(doc[p.pos:], '<')
		if i < 0 {
			p.pos = len(doc)
			if readErr != nil {
				return readErr
			}
			if len(p.stk) != 0 {
				return p.errf("unexpected EOF inside <%s>", p.stk[len(p.stk)-1])
			}
			if !p.rootClosed {
				return p.errf("empty document")
			}
			return nil
		}
		start := p.pos + i
		p.pos = start + 1
		if p.pos == len(doc) {
			return p.errf("truncated tag")
		}
		var err error
		switch doc[p.pos] {
		case '?':
			p.pos++
			err = p.skipPast("?>", "truncated \"?>\" section")
		case '!':
			p.pos++
			err = p.skipDeclaration()
		case '/':
			p.pos++
			var name []byte
			if name, err = p.readName(); err == nil {
				if err = p.skipToGT(); err == nil {
					err = p.closeElement(name)
				}
			}
		default:
			if p.offerHost(start) {
				continue
			}
			var name []byte
			var selfClosing bool
			if selfClosing, name, err = p.parseStartTag(); err == nil {
				err = p.openElement(name, selfClosing, start)
			}
		}
		if err != nil {
			return err
		}
	}
}

// offerHost gives Handler.OfferHost the chance to take the HOST element
// starting at start whole; p.pos is just past its '<'.
func (p *parser) offerHost(start int) bool {
	rest := p.doc[p.pos:]
	if p.h.OfferHost == nil || p.skip > 0 || p.parent() != "CLUSTER" ||
		len(rest) < 5 || string(rest[:4]) != "HOST" || isNameByte(rest[4]) {
		return false
	}
	n := p.h.OfferHost(p.doc, start)
	if n <= 0 || n > len(p.doc)-start {
		return false
	}
	p.pos = start + n
	return true
}

// skipPast discards input through the first occurrence of t.
func (p *parser) skipPast(t, truncated string) error {
	i := bytes.Index(p.doc[p.pos:], []byte(t))
	if i < 0 {
		return p.eof("%s", truncated)
	}
	p.pos += i + len(t)
	return nil
}

// skipDeclaration discards a <!...> construct: a comment (which may
// contain '>') or a DOCTYPE possibly carrying an internal subset in
// square brackets. "<!" has been consumed.
func (p *parser) skipDeclaration() error {
	if bytes.HasPrefix(p.doc[p.pos:], []byte("--")) {
		p.pos += 2
		return p.skipPast("-->", "truncated comment")
	}
	depth := 0
	for ; p.pos < len(p.doc); p.pos++ {
		switch p.doc[p.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos++
				return nil
			}
		}
	}
	return p.eof("truncated declaration")
}

func (p *parser) skipToGT() error {
	for p.pos < len(p.doc) {
		c := p.doc[p.pos]
		p.pos++
		if c == '>' {
			return nil
		}
		if !isSpace(c) {
			return p.errf("unexpected %q in end tag", c)
		}
	}
	return p.eof("truncated end tag")
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// readName returns the tag or attribute name at p.pos as a sub-slice
// of the document; the terminator is left unconsumed.
func (p *parser) readName() ([]byte, error) {
	start := p.pos
	for p.pos < len(p.doc) && isNameByte(p.doc[p.pos]) {
		p.pos++
	}
	if p.pos == len(p.doc) {
		return nil, p.errf("truncated name")
	}
	if c := p.doc[p.pos]; !isSpace(c) && c != '/' && c != '>' && c != '=' {
		p.pos++
		return nil, p.errf("invalid name byte %q", c)
	}
	if p.pos == start {
		return nil, p.errf("empty name")
	}
	return p.doc[start:p.pos], nil
}

// parseStartTag parses "NAME attr=.. ...>" or "NAME .../>"; the '<' has
// been consumed.
func (p *parser) parseStartTag() (selfClosing bool, name []byte, err error) {
	name, err = p.readName()
	if err != nil {
		return false, nil, err
	}
	p.atts, p.dec = p.atts[:0], p.dec[:0]
	for p.pos < len(p.doc) {
		c := p.doc[p.pos]
		switch {
		case isSpace(c):
			p.pos++
		case c == '>':
			p.pos++
			return false, name, nil
		case c == '/':
			p.pos++
			if p.pos == len(p.doc) || p.doc[p.pos] != '>' {
				if p.pos < len(p.doc) {
					p.pos++
				}
				return false, nil, p.errf("expected '>' after '/' in <%s>", name)
			}
			p.pos++
			return true, name, nil
		default:
			var a attr
			if a.name, err = p.readName(); err != nil {
				return false, nil, err
			}
			if err = p.expectByte('='); err != nil {
				return false, nil, err
			}
			if a.value, err = p.readAttrValue(); err != nil {
				return false, nil, err
			}
			p.atts = append(p.atts, a)
		}
	}
	return false, nil, p.eof("truncated tag <%s>", name)
}

func (p *parser) expectByte(want byte) error {
	for p.pos < len(p.doc) {
		c := p.doc[p.pos]
		p.pos++
		if c == want {
			return nil
		}
		if !isSpace(c) {
			return p.errf("expected %q, found %q", want, c)
		}
	}
	return p.eof("truncated input, expected %q", want)
}

// readAttrValue returns the quoted value at p.pos: a sub-slice of the
// document when it holds no entity reference, decoded into p.dec
// otherwise.
func (p *parser) readAttrValue() ([]byte, error) {
	var quote byte
	for {
		if p.pos == len(p.doc) {
			return nil, p.errf("truncated attribute value")
		}
		c := p.doc[p.pos]
		p.pos++
		if isSpace(c) {
			continue
		}
		if c != '"' && c != '\'' {
			return nil, p.errf("attribute value must be quoted, found %q", c)
		}
		quote = c
		break
	}
	rest := p.doc[p.pos:]
	end := bytes.IndexByte(rest, quote)
	if end >= 0 && bytes.IndexByte(rest[:end], '&') < 0 {
		p.pos += end + 1
		return rest[:end], nil
	}
	from := len(p.dec)
	for p.pos < len(p.doc) {
		c := p.doc[p.pos]
		p.pos++
		switch c {
		case quote:
			return p.dec[from:], nil
		case '&':
			r, err := p.readEntity()
			if err != nil {
				return nil, err
			}
			p.dec = utf8.AppendRune(p.dec, r)
		default:
			p.dec = append(p.dec, c)
		}
	}
	return nil, p.errf("truncated attribute value")
}

// readEntity decodes an entity reference after the '&'.
func (p *parser) readEntity() (rune, error) {
	start := p.pos
	for {
		if p.pos == len(p.doc) {
			return 0, p.errf("truncated entity")
		}
		c := p.doc[p.pos]
		p.pos++
		if c == ';' {
			break
		}
		if p.pos-start > 9 {
			return 0, p.errf("entity too long")
		}
	}
	ent := string(p.doc[start : p.pos-1])
	switch ent {
	case "amp":
		return '&', nil
	case "lt":
		return '<', nil
	case "gt":
		return '>', nil
	case "quot":
		return '"', nil
	case "apos":
		return '\'', nil
	}
	if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
		n, err := strconv.ParseUint(ent[2:], 16, 32)
		if err != nil {
			return 0, p.errf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	}
	if strings.HasPrefix(ent, "#") {
		n, err := strconv.ParseUint(ent[1:], 10, 32)
		if err != nil {
			return 0, p.errf("bad character reference &%s;", ent)
		}
		return rune(n), nil
	}
	return 0, p.errf("unknown entity &%s;", ent)
}

// find returns the raw value of the named attribute of the current tag,
// nil when absent.
func (p *parser) find(name string) []byte {
	for i := range p.atts {
		if string(p.atts[i].name) == name {
			return p.atts[i].value
		}
	}
	return nil
}

// findAttr copies the named attribute's value out of the document, for
// fields the handler keeps.
func (p *parser) findAttr(name string) string { return string(p.find(name)) }

func (p *parser) intAttr(name string) int64 {
	v, err := strconv.ParseInt(string(p.find(name)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *parser) floatAttr(name string) float64 {
	v, err := strconv.ParseFloat(string(p.find(name)), 64)
	if err != nil {
		return 0
	}
	return v
}

func (p *parser) parent() string {
	if len(p.stk) == 0 {
		return ""
	}
	return p.stk[len(p.stk)-1]
}

func (p *parser) openElement(nameb []byte, selfClosing bool, start int) error {
	if p.skip > 0 {
		if !selfClosing {
			p.skip++
		}
		return nil
	}
	parent := p.parent()
	name := elementName(nameb)
	switch name {
	case "GANGLIA_XML":
		if parent != "" {
			return p.errf("GANGLIA_XML must be the document root")
		}
		if p.h.StartReport != nil {
			p.h.StartReport(p.findAttr("VERSION"), p.findAttr("SOURCE"))
		}
	case "GRID":
		if parent != "GANGLIA_XML" && parent != "GRID" {
			return p.errf("GRID inside <%s>", parent)
		}
		if p.h.StartGrid != nil {
			p.h.StartGrid(p.findAttr("NAME"), p.findAttr("AUTHORITY"), p.intAttr("LOCALTIME"))
		}
	case "CLUSTER":
		if parent != "GANGLIA_XML" && parent != "GRID" {
			return p.errf("CLUSTER inside <%s>", parent)
		}
		if p.h.StartCluster != nil {
			p.h.StartCluster(p.findAttr("NAME"), p.findAttr("OWNER"),
				p.findAttr("URL"), p.intAttr("LOCALTIME"))
		}
	case "HOST":
		if parent != "CLUSTER" {
			return p.errf("HOST inside <%s>", parent)
		}
		p.hostStart = start
		if p.h.StartHost != nil {
			p.h.StartHost(Host{
				Name:     p.findAttr("NAME"),
				IP:       p.findAttr("IP"),
				Reported: p.intAttr("REPORTED"),
				TN:       uint32(p.intAttr("TN")),
				TMAX:     uint32(p.intAttr("TMAX")),
				DMAX:     uint32(p.intAttr("DMAX")),
			})
		}
	case "METRIC":
		if parent != "HOST" {
			return p.errf("METRIC inside <%s>", parent)
		}
		if p.h.Metric != nil {
			typ := metric.ParseType(p.findAttr("TYPE"))
			p.h.Metric(metric.Metric{
				Name:   p.findAttr("NAME"),
				Val:    metric.ParseTyped(typ, p.find("VAL")),
				Units:  p.findAttr("UNITS"),
				Slope:  metric.ParseSlope(p.findAttr("SLOPE")),
				TN:     uint32(p.intAttr("TN")),
				TMAX:   uint32(p.intAttr("TMAX")),
				DMAX:   uint32(p.intAttr("DMAX")),
				Source: p.findAttr("SOURCE"),
			})
		}
	case "HOSTS":
		if parent != "GRID" && parent != "CLUSTER" {
			return p.errf("HOSTS inside <%s>", parent)
		}
		if p.h.SummaryHosts != nil {
			p.h.SummaryHosts(uint32(p.intAttr("UP")), uint32(p.intAttr("DOWN")))
		}
	case "METRICS":
		if parent != "GRID" && parent != "CLUSTER" {
			return p.errf("METRICS inside <%s>", parent)
		}
		if p.h.SummaryMetric != nil {
			p.h.SummaryMetric(summary.Metric{
				Name:  p.findAttr("NAME"),
				Sum:   p.floatAttr("SUM"),
				SumSq: p.floatAttr("SUMSQ"),
				Num:   uint32(p.intAttr("NUM")),
				Type:  metric.ParseType(p.findAttr("TYPE")),
				Units: p.findAttr("UNITS"),
			})
		}
	case "SOURCE_HEALTH":
		if parent != "GRID" {
			return p.errf("SOURCE_HEALTH inside <%s>", parent)
		}
		if p.h.SourceHealth != nil {
			p.h.SourceHealth(SourceHealth{
				Name:       p.findAttr("NAME"),
				Status:     p.findAttr("STATUS"),
				ActiveAddr: p.findAttr("ACTIVE"),
				DownSince:  p.intAttr("DOWN_SINCE"),
				LastError:  p.findAttr("LAST_ERROR"),
			})
		}
	case "HISTORY":
		if parent != "GANGLIA_XML" {
			return p.errf("HISTORY inside <%s>", parent)
		}
		if p.h.StartHistory != nil {
			p.h.StartHistory(History{
				Cluster: p.findAttr("CLUSTER"),
				Host:    p.findAttr("HOST"),
				Metric:  p.findAttr("METRIC"),
				CF:      p.findAttr("CF"),
				Step:    p.intAttr("STEP"),
			})
		}
	case "POINT":
		if parent != "HISTORY" {
			return p.errf("POINT inside <%s>", parent)
		}
		if p.h.HistoryPoint != nil {
			p.h.HistoryPoint(HistoryPoint{
				Time:  p.intAttr("T"),
				Value: parseHistoryValue(p.findAttr("V")),
			})
		}
	default:
		if !selfClosing {
			p.skip = 1
		}
		return nil
	}
	if selfClosing {
		return p.dispatchEnd(name)
	}
	p.stk = append(p.stk, name)
	return nil
}

// elements lists the DTD's element names, most frequent first.
var elements = [...]string{"METRIC", "HOST", "METRICS", "POINT", "CLUSTER", "GRID",
	"HOSTS", "SOURCE_HEALTH", "HISTORY", "GANGLIA_XML"}

// elementName returns the known element b spells — as a constant, so
// the nesting stack holds no document bytes — or "" for an unknown one.
func elementName(b []byte) string {
	for _, e := range elements {
		if string(b) == e {
			return e
		}
	}
	return ""
}

func (p *parser) closeElement(name []byte) error {
	if p.skip > 0 {
		p.skip--
		return nil
	}
	if len(p.stk) == 0 {
		return p.errf("unmatched </%s>", name)
	}
	top := p.stk[len(p.stk)-1]
	if top != string(name) {
		return p.errf("</%s> closes <%s>", name, top)
	}
	p.stk = p.stk[:len(p.stk)-1]
	return p.dispatchEnd(top)
}

func (p *parser) dispatchEnd(name string) error {
	switch name {
	case "GANGLIA_XML":
		p.rootClosed = true
		if p.h.EndReport != nil {
			p.h.EndReport()
		}
	case "GRID":
		if p.h.EndGrid != nil {
			p.h.EndGrid()
		}
	case "CLUSTER":
		if p.h.EndCluster != nil {
			p.h.EndCluster()
		}
	case "HOST":
		if p.h.EndHost != nil {
			p.h.EndHost(p.hostStart, p.pos)
		}
	case "HISTORY":
		if p.h.EndHistory != nil {
			p.h.EndHistory()
		}
	}
	return nil
}

// ErrNoDocument is returned by Parse when the input holds no
// GANGLIA_XML document.
var ErrNoDocument = errors.New("gxml: no GANGLIA_XML document")

// Parse reads a complete document into a Report tree.
func Parse(r io.Reader) (*Report, error) {
	var (
		rep     *Report
		gridStk []*Grid
		curClu  *Cluster
		curHost *Host
		curHist *History
		curSumm *summary.Summary // summary under construction for innermost grid/cluster
		summFor any              // the *Grid or *Cluster curSumm belongs to
	)
	attach := func(s *summary.Summary, owner any) {
		switch o := owner.(type) {
		case *Grid:
			o.Summary = s
		case *Cluster:
			o.Summary = s
		}
	}
	h := &Handler{
		StartReport: func(version, source string) {
			rep = &Report{Version: version, Source: source}
		},
		StartGrid: func(name, authority string, lt int64) {
			g := &Grid{Name: name, Authority: authority, LocalTime: lt}
			if len(gridStk) > 0 {
				parent := gridStk[len(gridStk)-1]
				parent.Grids = append(parent.Grids, g)
			} else {
				rep.Grids = append(rep.Grids, g)
			}
			gridStk = append(gridStk, g)
			curSumm, summFor = nil, nil
		},
		EndGrid: func() {
			g := gridStk[len(gridStk)-1]
			if curSumm != nil && summFor == any(g) {
				attach(curSumm, g)
				curSumm, summFor = nil, nil
			}
			gridStk = gridStk[:len(gridStk)-1]
		},
		StartCluster: func(name, owner, url string, lt int64) {
			curClu = &Cluster{Name: name, Owner: owner, URL: url, LocalTime: lt}
			if len(gridStk) > 0 {
				g := gridStk[len(gridStk)-1]
				g.Clusters = append(g.Clusters, curClu)
			} else {
				rep.Clusters = append(rep.Clusters, curClu)
			}
			curSumm, summFor = nil, nil
		},
		EndCluster: func() {
			if curSumm != nil && summFor == any(curClu) {
				attach(curSumm, curClu)
				curSumm, summFor = nil, nil
			}
			curClu = nil
		},
		StartHost: func(hh Host) {
			h := hh
			curHost = &h
			curClu.Hosts = append(curClu.Hosts, curHost)
		},
		EndHost: func(int, int) { curHost = nil },
		Metric: func(m metric.Metric) {
			curHost.Metrics = append(curHost.Metrics, m)
		},
		SummaryHosts: func(up, down uint32) {
			s, owner := ensureSummary(curClu, gridStk, curSumm, summFor)
			s.HostsUp, s.HostsDown = up, down
			curSumm, summFor = s, owner
		},
		SummaryMetric: func(sm summary.Metric) {
			s, owner := ensureSummary(curClu, gridStk, curSumm, summFor)
			s.AddReduced(sm)
			curSumm, summFor = s, owner
		},
		SourceHealth: func(sh SourceHealth) {
			if len(gridStk) > 0 {
				g := gridStk[len(gridStk)-1]
				shh := sh
				g.Health = append(g.Health, &shh)
			}
		},
		StartHistory: func(h History) {
			hh := h
			curHist = &hh
			rep.Histories = append(rep.Histories, curHist)
		},
		EndHistory: func() { curHist = nil },
		HistoryPoint: func(p HistoryPoint) {
			curHist.Points = append(curHist.Points, p)
		},
	}
	if err := ParseStream(r, h); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, ErrNoDocument
	}
	return rep, nil
}

// ensureSummary locates (or creates) the summary being built for the
// innermost open cluster or grid.
func ensureSummary(curClu *Cluster, gridStk []*Grid, cur *summary.Summary, owner any) (*summary.Summary, any) {
	var want any
	if curClu != nil {
		want = curClu
	} else if len(gridStk) > 0 {
		want = gridStk[len(gridStk)-1]
	}
	if cur != nil && owner == want {
		return cur, owner
	}
	return summary.New(), want
}
