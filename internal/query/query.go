// Package query implements gmetad's query language (paper §2.3):
// "a small path-like query that specifies a single local subtree to
// report" instead of dumping the entire monitoring tree.
//
// The grammar is deliberately tiny — the paper's authors found XPath
// engines "too heavyweight and inefficient" and observed that "a
// simpler query facility could achieve the efficiency gains we sought":
//
//	query   := path [ "?" param *( "&" param ) ]
//	path    := "/" | "/" segment [ "/" segment [ "/" segment ] ]
//	segment := literal | "~" regex
//	param   := "filter=" name
//	         | "start=" unix | "end=" unix | "step=" seconds
//	         | "cf=" ( "AVERAGE" | "MIN" | "MAX" | "LAST" )
//	         | "topk=" count
//
// Segments address, in order, a data source (cluster or grid), a host,
// and a metric — the three hash-table levels of the gmetad DOM. The
// "~regex" segment form is the richer regular-expression matching that
// the paper's §4 plans as future work.
//
// The start/end/step/cf/topk parameters qualify history queries —
// time-range selection with query-time consolidation, the relational
// flavor of time-range access R-GMA's consumers expect — and imply
// filter=history when no filter is spelled; combining them with any
// other filter is an error.
package query

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Filter selects an alternative report form.
type Filter uint8

const (
	// FilterNone reports the addressed subtree at full resolution.
	FilterNone Filter = iota
	// FilterSummary reports the addressed cluster or source in
	// summary form — the paper's "cluster-summary query for large
	// clusters" (§2.3.2).
	FilterSummary
	// FilterHistory reports the archived time series of the addressed
	// metric (depth-3 queries only) — the "basic queries against"
	// metric histories of §2.1. Use the pseudo-host "__summary__" to
	// address a cluster-summary series.
	FilterHistory
	// FilterStream upgrades the connection to a persistent delta
	// subscription (root queries only): the server answers with a
	// generation-tagged FULL frame followed by DELTA frames as the tree
	// changes, instead of one XML document. See internal/stream.
	FilterStream
	// FilterStreamSummary is FilterStream for the O(m) summary form of
	// the tree — the feed a parent running the paper's N-level design
	// subscribes to.
	FilterStreamSummary
	// FilterWatch long-polls (root and subtree queries): the server
	// withholds the answer until the tree changes (or a timeout
	// passes), then reports the addressed subtree normally and closes.
	FilterWatch
)

// String returns the filter's query spelling.
func (f Filter) String() string {
	switch f {
	case FilterNone:
		return ""
	case FilterSummary:
		return "summary"
	case FilterHistory:
		return "history"
	case FilterStream:
		return "stream"
	case FilterStreamSummary:
		return "stream-summary"
	case FilterWatch:
		return "watch"
	}
	return fmt.Sprintf("filter(%d)", uint8(f))
}

// Matcher matches one path segment against names at one DOM level.
type Matcher struct {
	literal string
	re      *regexp.Regexp
}

// Literal returns a Matcher for an exact name.
func Literal(name string) Matcher { return Matcher{literal: name} }

// Match reports whether name is selected by the matcher.
func (m Matcher) Match(name string) bool {
	if m.re != nil {
		return m.re.MatchString(name)
	}
	return m.literal == name
}

// IsRegex reports whether the matcher is a regular expression. Literal
// matchers resolve through a single hash lookup; regex matchers force a
// scan of the level.
func (m Matcher) IsRegex() bool { return m.re != nil }

// Name returns the literal name, or the regex source for regex
// matchers.
func (m Matcher) Name() string {
	if m.re != nil {
		return "~" + m.re.String()
	}
	return m.literal
}

// Params qualifies a history query: an optional time range, an optional
// query-time consolidation step and function, and an optional cross-host
// reduction. The zero value means "no parameters" — the legacy raw dump
// of the finest archive.
type Params struct {
	// HasStart/HasEnd report whether the range ends were spelled;
	// Start/End are inclusive unix seconds.
	HasStart, HasEnd bool
	Start, End       int64
	// Step is the consolidation bucket length in seconds; 0 = archive
	// resolution.
	Step int64
	// CF is the canonical consolidation-function spelling ("AVERAGE",
	// "MIN", "MAX", "LAST"); "" defaults to AVERAGE.
	CF string
	// TopK, when positive, reduces a /cluster/metric query across hosts:
	// report the K highest-scoring hosts' series.
	TopK int
}

// Zero reports whether no parameter was spelled.
func (p Params) Zero() bool {
	return !p.HasStart && !p.HasEnd && p.Step == 0 && p.CF == "" && p.TopK == 0
}

// StartTime returns the range start, if spelled.
func (p Params) StartTime() (time.Time, bool) {
	return time.Unix(p.Start, 0), p.HasStart
}

// EndTime returns the range end, if spelled.
func (p Params) EndTime() (time.Time, bool) {
	return time.Unix(p.End, 0), p.HasEnd
}

// StepDuration returns the consolidation step, 0 when unspelled.
func (p Params) StepDuration() time.Duration {
	return time.Duration(p.Step) * time.Second
}

// Query is one parsed query.
type Query struct {
	// Segments holds up to three path matchers: source, host, metric.
	Segments []Matcher
	// Filter is the optional report-form filter.
	Filter Filter
	// Params qualifies history queries.
	Params Params

	raw string
	key string
}

// MaxDepth is the deepest addressable level: source/host/metric.
const MaxDepth = 3

// Parse errors.
var (
	ErrEmpty     = errors.New("query: empty query")
	ErrNoSlash   = errors.New("query: path must begin with '/'")
	ErrTooDeep   = errors.New("query: more than 3 path segments")
	ErrBadFilter = errors.New("query: unknown filter")
	ErrBadRegex  = errors.New("query: bad regular expression segment")
	ErrEmptySeg  = errors.New("query: empty or blank path segment")
	ErrBadParam  = errors.New("query: bad parameter")
	ErrDupParam  = errors.New("query: duplicate parameter")
)

// wireSpace is the line protocol's whitespace: what a client's line may
// carry around the query, the trailing newline included. Unicode spaces
// are not in it: they can be part of a name, and trimming them would
// change the name a segment matches.
const wireSpace = " \t\r\n"

// Parse parses a query line as received on gmetad's interactive port.
// The wire protocol's ASCII whitespace (including the trailing
// newline) is trimmed.
func Parse(s string) (*Query, error) {
	raw := s
	s = strings.Trim(s, wireSpace)
	if s == "" {
		return nil, ErrEmpty
	}
	q := &Query{raw: raw}

	if i := strings.IndexByte(s, '?'); i >= 0 {
		f, params, err := parseParams(s[i+1:])
		if err != nil {
			return nil, err
		}
		q.Filter = f
		q.Params = params
		s = s[:i]
	}
	if s == "" || s[0] != '/' {
		return nil, ErrNoSlash
	}
	s = strings.Trim(s, "/")
	if s == "" {
		q.key = q.String()
		return q, nil // root query
	}
	for _, seg := range strings.Split(s, "/") {
		// A whitespace-only literal segment can never name a DOM node
		// and cannot round-trip through the line protocol (its spaces
		// are trimmed at the line ends); reject it as empty.
		if strings.Trim(seg, wireSpace) == "" {
			return nil, ErrEmptySeg
		}
		if len(q.Segments) == MaxDepth {
			return nil, ErrTooDeep
		}
		m, err := parseSegment(seg)
		if err != nil {
			return nil, err
		}
		q.Segments = append(q.Segments, m)
	}
	q.key = q.String()
	return q, nil
}

func parseSegment(seg string) (Matcher, error) {
	if strings.HasPrefix(seg, "~") {
		re, err := regexp.Compile(seg[1:])
		if err != nil {
			return Matcher{}, fmt.Errorf("%w: %v", ErrBadRegex, err)
		}
		return Matcher{re: re}, nil
	}
	return Matcher{literal: seg}, nil
}

func parseFilter(val string) (Filter, error) {
	switch val {
	case "summary":
		return FilterSummary, nil
	case "history":
		return FilterHistory, nil
	case "stream":
		return FilterStream, nil
	case "stream-summary":
		return FilterStreamSummary, nil
	case "watch":
		return FilterWatch, nil
	default:
		return FilterNone, fmt.Errorf("%w: %q", ErrBadFilter, val)
	}
}

// parseParams parses the "&"-separated parameter list after "?".
// History parameters imply filter=history when no filter is spelled.
func parseParams(s string) (Filter, Params, error) {
	var (
		f          Filter
		p          Params
		haveFilter bool
		haveStep   bool
		haveCF     bool
		haveTopK   bool
	)
	for _, kv := range strings.Split(s, "&") {
		kv = strings.TrimSpace(kv)
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			// Preserve the legacy error for a bare "?garbage" suffix.
			return f, p, fmt.Errorf("%w: %q", ErrBadFilter, kv)
		}
		switch key {
		case "filter":
			if haveFilter {
				return f, p, fmt.Errorf("%w: filter", ErrDupParam)
			}
			haveFilter = true
			var err error
			if f, err = parseFilter(val); err != nil {
				return f, p, err
			}
		case "start":
			if p.HasStart {
				return f, p, fmt.Errorf("%w: start", ErrDupParam)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, p, fmt.Errorf("%w: start=%q", ErrBadParam, val)
			}
			p.HasStart, p.Start = true, n
		case "end":
			if p.HasEnd {
				return f, p, fmt.Errorf("%w: end", ErrDupParam)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, p, fmt.Errorf("%w: end=%q", ErrBadParam, val)
			}
			p.HasEnd, p.End = true, n
		case "step":
			if haveStep {
				return f, p, fmt.Errorf("%w: step", ErrDupParam)
			}
			haveStep = true
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return f, p, fmt.Errorf("%w: step=%q (want positive seconds)", ErrBadParam, val)
			}
			p.Step = n
		case "cf":
			if haveCF {
				return f, p, fmt.Errorf("%w: cf", ErrDupParam)
			}
			haveCF = true
			switch up := strings.ToUpper(val); up {
			case "AVERAGE", "MIN", "MAX", "LAST":
				p.CF = up
			default:
				return f, p, fmt.Errorf("%w: cf=%q (want AVERAGE|MIN|MAX|LAST)", ErrBadParam, val)
			}
		case "topk":
			if haveTopK {
				return f, p, fmt.Errorf("%w: topk", ErrDupParam)
			}
			haveTopK = true
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return f, p, fmt.Errorf("%w: topk=%q (want positive count)", ErrBadParam, val)
			}
			p.TopK = n
		default:
			return f, p, fmt.Errorf("%w: %q", ErrBadParam, key)
		}
	}
	if !p.Zero() {
		if !haveFilter {
			f = FilterHistory
		} else if f != FilterHistory {
			return f, p, fmt.Errorf("%w: history parameters require filter=history, got filter=%s",
				ErrBadParam, f)
		}
	}
	return f, p, nil
}

// MustParse is Parse for constant queries in tests and examples.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Key returns the canonical cache key for the query: every spelling of
// the same selection — trailing slashes, surrounding whitespace, the
// wire protocol's newline — maps to one key, so a response cache keyed
// on it deduplicates equivalent queries. Parse computes the key once;
// for queries built by hand it falls back to String().
func (q *Query) Key() string {
	if q.key != "" {
		return q.key
	}
	return q.String()
}

// Root reports whether the query addresses the whole tree.
func (q *Query) Root() bool { return len(q.Segments) == 0 }

// Depth returns the number of path segments.
func (q *Query) Depth() int { return len(q.Segments) }

// String reconstructs the canonical query text. Parameters are emitted
// in a fixed order (filter, start, end, step, cf, topk) with canonical
// value spellings, so every equivalent query prints — and therefore
// keys — identically.
func (q *Query) String() string {
	var sb strings.Builder
	if len(q.Segments) == 0 {
		sb.WriteByte('/')
	}
	for _, m := range q.Segments {
		sb.WriteByte('/')
		sb.WriteString(m.Name())
	}
	if q.Filter == FilterNone && q.Params.Zero() {
		return sb.String()
	}
	sb.WriteByte('?')
	sep := false
	add := func(k, v string) {
		if sep {
			sb.WriteByte('&')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(v)
		sep = true
	}
	if q.Filter != FilterNone {
		add("filter", q.Filter.String())
	}
	p := q.Params
	if p.HasStart {
		add("start", strconv.FormatInt(p.Start, 10))
	}
	if p.HasEnd {
		add("end", strconv.FormatInt(p.End, 10))
	}
	if p.Step != 0 {
		add("step", strconv.FormatInt(p.Step, 10))
	}
	if p.CF != "" {
		add("cf", p.CF)
	}
	if p.TopK != 0 {
		add("topk", strconv.Itoa(p.TopK))
	}
	return sb.String()
}
