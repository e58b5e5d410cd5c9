package gmetad

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/rrd"
	"ganglia/internal/summary"
)

// addrHealth is the per-address dial record behind backoff failover:
// consecutive failures and the earliest instant the address is worth
// dialing again. Backoff only reorders the failover walk — when every
// address of a source is backed off, the one due soonest is still
// probed, so a source is never abandoned.
type addrHealth struct {
	fails   int
	retryAt time.Time
}

// sourceSlot is the level-1 entry of the hash DOM: one per data source.
// Each slot carries its own RWMutex — the paper's "fine-grained locks on
// its data structures that enable the parser and query engine threads
// to operate at once" (§2.3.1). The poller builds a fresh sourceData
// off-lock and swaps it in, so queries always see a complete snapshot.
type sourceSlot struct {
	cfg DataSource

	mu         sync.RWMutex
	data       *sourceData // nil until the first successful poll
	failed     bool
	downSince  time.Time
	lastErr    error
	activeAddr string
	// version counts this slot's snapshot publications; each published
	// sourceData carries the version it was installed at, so readers
	// can tell two polls of the same source apart even when the data
	// happens to be identical.
	version uint64

	// health tracks per-address dial backoff (lazily populated).
	health map[string]*addrHealth
	// consecFails counts consecutive failed polls; the circuit
	// breaker's input. Reset to zero by any successful poll.
	consecFails int
	// nextPollAt defers polling while the breaker is open. Zero means
	// poll on the normal cadence.
	nextPollAt time.Time
	// breakerOpen remembers whether the trip was already logged and
	// counted.
	breakerOpen bool
	// rng drives backoff jitter; seeded per slot so chaos runs are
	// reproducible. Guarded by mu like the rest of the slot.
	rng *rand.Rand

	// sub is the slot's subscription state machine when the source is
	// configured with Subscribe; nil for polled sources. It carries its
	// own lock — the poll gate consults it without the slot lock.
	sub *subscriber

	// memo is the poll path's host memo. Only the slot's poller touches
	// it (rounds of one slot never overlap), so it takes no lock; a
	// subscription link keeps its own, next to its ledger.
	memo hostMemo
}

// hostMemo is what one ingest link remembers of the last report it
// parsed successfully: the report itself and, per (cluster, host), the
// span of the HOST element in it and the immutable *gxml.Host the span
// produced. While the next report of the link is parsed, a HOST element
// whose bytes equal the remembered span is not tokenized again: the
// remembered host is attached to the new snapshot by pointer. Equality
// is a byte comparison against the retained report, not a hash — the
// remembered span is one complete element the parser accepted, so a
// document that continues with the same bytes continues with the same
// element and would parse to the same host.
//
// A memo is owned by exactly one goroutine. It is replaced only by a
// report that parsed to the end, so a host of a failed report is never
// reused and hosts absent from the newest report expire with the old
// memo. The zero memo is the cold case: a first poll or a FULL sync.
type hostMemo struct {
	doc      []byte
	clusters map[string]map[string]memoHost
	// spare is the report buffer doc replaced, free for the next
	// download or reassembly, so a link ingests without allocating.
	spare []byte
	// samples is the archive buffer, reused host to host and round to
	// round for one host's samples at a time.
	samples []rrd.Sample
}

// memoHost is one remembered HOST element.
type memoHost struct {
	off, end int // span in hostMemo.doc
	host     *gxml.Host
}

// advance installs the record of a successfully parsed report; the
// report it replaces becomes the spare buffer.
func (m *hostMemo) advance(doc []byte, clusters map[string]map[string]memoHost) {
	m.spare, m.doc, m.clusters = m.doc, doc, clusters
}

// hostNameAt returns the raw NAME value of the HOST element at
// doc[start:] when the element opens the way Ganglia writers spell it,
// nil otherwise. It only picks the memo entry to compare against: a
// wrong or missing key costs a parse, never correctness.
func hostNameAt(doc []byte, start int) []byte {
	const open = `<HOST NAME="`
	rest := doc[start:]
	if len(rest) < len(open) || string(rest[:len(open)]) != open {
		return nil
	}
	rest = rest[len(open):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return rest[:i]
	}
	return nil
}

// sourceFragment is one snapshot's subtree rendered to XML.
type sourceFragment struct {
	// clusters holds the rendered CLUSTER elements of a gmond source in
	// clusterOrder; grids holds the rendered GRID elements of a gmetad
	// source (the O(m) summary grid in N-level mode, the child's full
	// grid trees in 1-level mode). The split mirrors document order:
	// depth-0 responses emit every source's clusters before any grids.
	clusters []byte
	grids    []byte

	// spans indexes the fragment at cluster and host granularity, in
	// document order: the clusters buffer of a gmond source, the grids
	// buffer of a 1-level child (an N-level summary grid has no hosts
	// and no spans). The stream feed producer diffs consecutive gmond
	// fragments host-by-host through these offsets, shipping only the
	// bytes that changed, and the next render of the slot copies the
	// bytes of hosts it still shares — neither ever reparses output.
	spans []clusterSpan
	// age is the soft-state age baked into every rendered TN.
	age uint32
}

// span is a half-open byte range within a fragment buffer.
type span struct{ off, end int }

// clusterSpan locates one rendered CLUSTER section inside a fragment
// buffer: the open tag, then each host element in name order. The close
// tag is constant (stream.ClusterClose) and is not recorded.
type clusterSpan struct {
	name  string
	open  span
	hosts []hostSpan
}

// hostSpan locates one rendered HOST element and names the immutable
// host it was rendered from: a later snapshot holding the same pointer
// (at the same age) renders to the same bytes.
type hostSpan struct {
	name string
	b    span
	host *gxml.Host
}

// buffer returns the buffer the fragment's spans index.
func (f *sourceFragment) buffer() []byte {
	if f.clusters != nil {
		return f.clusters
	}
	return f.grids
}

// cluster returns the span of the cluster called name, trying position
// i first (consecutive fragments of a slot nearly always list the same
// clusters in the same order); nil when f is nil or has no such span.
func (f *sourceFragment) cluster(i int, name string) *clusterSpan {
	if f == nil {
		return nil
	}
	if i < len(f.spans) && f.spans[i].name == name {
		return &f.spans[i]
	}
	for j := range f.spans {
		if f.spans[j].name == name {
			return &f.spans[j]
		}
	}
	return nil
}

// host returns the span of the host called name. Callers ask in name
// order, the order the spans are in, so a cursor replaces a lookup
// table; nil when c is nil or holds no such host.
func (c *clusterSpan) host(cursor *int, name string) *hostSpan {
	if c == nil {
		return nil
	}
	for *cursor < len(c.hosts) && c.hosts[*cursor].name < name {
		*cursor++
	}
	if *cursor < len(c.hosts) && c.hosts[*cursor].name == name {
		return &c.hosts[*cursor]
	}
	return nil
}

// size returns the fragment's rendered byte length, used to presize
// response buffers so splicing does not reallocate per source.
func (f *sourceFragment) size() int {
	if f == nil {
		return 0
	}
	return len(f.clusters) + len(f.grids)
}

// healthOf returns the slot's health record for addr, creating it on
// first use. Caller holds slot.mu.
func (s *sourceSlot) healthOf(addr string) *addrHealth {
	if s.health == nil {
		s.health = make(map[string]*addrHealth)
	}
	h := s.health[addr]
	if h == nil {
		h = &addrHealth{}
		s.health[addr] = h
	}
	return h
}

// snapshot returns the current data (possibly nil) and failure state.
func (s *sourceSlot) snapshot() (*sourceData, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data, s.failed
}

// install makes data the slot's current snapshot at the next version,
// with an unbuilt fragment cell that carries the slot's most recent
// fragment forward as the render's copy source. Caller holds s.mu.
func (s *sourceSlot) install(data *sourceData) {
	s.version++
	data.epoch = s.version
	data.frag = &fragCell{}
	if s.data != nil {
		data.frag.prev.Store(s.data.frag.latest())
	}
	s.data = data
}

// fragCell holds a snapshot's rendered fragment. Nothing renders at
// publish: the snapshot's first reader — a depth-0 or depth-1 answer,
// the stream feed, a 1-level parent's poll — builds the fragment, and
// every later reader of the snapshot shares that one build. A snapshot
// nobody reads is never rendered, and since the fragment lives in the
// snapshot it renders, it cannot belong to another generation.
type fragCell struct {
	once sync.Once
	frag atomic.Pointer[sourceFragment]
	// prev is the most recent fragment the slot built before this
	// snapshot, carried forward across snapshots nobody read: the build
	// copies the hosts it shares from it. It is dropped once the cell
	// is built, so a slot holds at most one old fragment.
	prev atomic.Pointer[sourceFragment]
}

// latest returns the cell's fragment if it was built, else the one it
// would copy from. prev is loaded first: a build stores frag before it
// clears prev, so a build racing this call cannot hide both.
func (c *fragCell) latest() *sourceFragment {
	p := c.prev.Load()
	if f := c.frag.Load(); f != nil {
		return f
	}
	return p
}

// sourceData is one immutable poll result.
type sourceData struct {
	name      string
	kind      SourceKind
	authority string // child gmetad's authority URL
	localtime int64
	polled    time.Time
	// epoch is the slot version this snapshot was published at (the
	// per-source poll epoch). Set once at publication, then read-only.
	epoch uint64
	// age is the soft-state age baked into this snapshot at publish
	// time: zero for a fresh poll, now−polled for the re-aged snapshots
	// failed and breaker-deferred rounds publish. Serialization adds it
	// to every TN, so responses present honestly old data without a
	// per-request deep copy — ages advance on the polling time scale,
	// which is the freshness the paper's §2.3.1 snapshot trade already
	// grants the query engine.
	age uint32
	// frag is the snapshot's own fragment cell, set at publication; a
	// re-aged copy gets a new one.
	frag *fragCell

	// clusters indexes every full-resolution cluster found in the
	// report, including clusters nested in child grids (1-level mode).
	clusters map[string]*clusterData
	// clusterOrder preserves deterministic serialization order.
	clusterOrder []string

	// grids preserves the child's grid tree for faithful
	// re-serialization in 1-level mode.
	grids []*gxml.Grid

	// summary is the additive reduction over the whole source.
	summary *summary.Summary
}

// clusterData is the level-2/3 hash structure for one cluster: hosts by
// name, each host's metrics by name (within gxml.Host), plus the
// cluster's reduction.
type clusterData struct {
	meta    gxml.Cluster // Name/Owner/URL/LocalTime only
	hosts   map[string]*gxml.Host
	order   []string
	summary *summary.Summary
	// inGrid marks clusters found nested inside a child grid (1-level
	// mode); they are summarized through the grid walk, not directly.
	inGrid bool
}

// newClusterData wraps cluster attributes; hosts presizes the tables.
func newClusterData(name, owner, url string, localtime int64, hosts int) *clusterData {
	return &clusterData{
		meta:  gxml.Cluster{Name: name, Owner: owner, URL: url, LocalTime: localtime},
		hosts: make(map[string]*gxml.Host, hosts),
		order: make([]string, 0, hosts),
	}
}

// finalize sorts hosts and, when computeSummary is set, computes the
// cluster's reduction. A cluster that arrived in summary form (no
// hosts, parsed HOSTS/METRICS tags) keeps the summary it came with.
func (c *clusterData) finalize(computeSummary bool) {
	sort.Strings(c.order)
	if len(c.hosts) == 0 && c.summary != nil {
		return
	}
	if !computeSummary {
		return
	}
	c.summary = c.summaryOf()
}

// summaryOf returns the cluster's reduction, computing it on the fly
// when the poller skipped summarization (1-level mode, where the legacy
// daemon kept no summaries; the rare summary query pays at query time).
func (c *clusterData) summaryOf() *summary.Summary {
	if c.summary != nil {
		return c.summary
	}
	s := summary.New()
	for _, name := range c.order {
		h := c.hosts[name]
		up := h.Up()
		s.AddHost(up)
		if !up {
			continue
		}
		for _, m := range h.Metrics {
			s.AddMetric(m)
		}
	}
	return s
}

// summaryOf returns the source's reduction, computing it on demand when
// the poller skipped summarization.
func (d *sourceData) summaryOf() *summary.Summary {
	if d.summary != nil {
		return d.summary
	}
	total := summary.New()
	for _, name := range d.clusterOrder {
		c := d.clusters[name]
		if c.inGrid {
			continue
		}
		total.Merge(c.summaryOf())
	}
	for _, g := range d.grids {
		total.Merge(g.Summarize())
	}
	return total
}

// builder assembles a sourceData from streaming parse events.
type builder struct {
	out *sourceData
	// summarize controls whether reductions are computed during the
	// parse. The N-level design summarizes on the polling time scale;
	// the legacy 1-level daemon does not summarize at all.
	summarize bool

	gridStack []*gxml.Grid
	curClu    *clusterData
	curGXML   *gxml.Cluster // shadow node in the grid tree
	curHost   *gxml.Host

	// gridSummaries collects the summary form of grids that arrive
	// pre-reduced from a child gmetad.
	summStack []*summary.Summary

	// prev is the link's memo, read-only here; seen is the record of
	// the report being parsed, which replaces it if the parse succeeds.
	// prevClu and seenClu are the open cluster's tables in each.
	prev             *hostMemo
	seen             map[string]map[string]memoHost
	prevClu, seenClu map[string]memoHost
	parsed, reused   int64 // HOST elements tokenized / taken from prev
}

func newBuilder(src DataSource, polled time.Time, summarize bool, prev *hostMemo) *builder {
	return &builder{
		summarize: summarize,
		prev:      prev,
		seen:      make(map[string]map[string]memoHost, len(prev.clusters)),
		out: &sourceData{
			name:     src.Name,
			kind:     src.Kind,
			polled:   polled,
			clusters: make(map[string]*clusterData, len(prev.clusters)),
		},
	}
}

// offerHost is the builder's gxml.Handler.OfferHost: the HOST element
// at doc[start:] is taken from the memo when the document continues with
// exactly the bytes remembered for that host.
func (b *builder) offerHost(doc []byte, start int) int {
	m, ok := b.prevClu[string(hostNameAt(doc, start))]
	if !ok {
		return 0
	}
	old := b.prev.doc[m.off:m.end]
	if !bytes.HasPrefix(doc[start:], old) {
		return 0
	}
	b.reused++
	b.addHost(m.host, start, start+len(old))
	return len(old)
}

// addHost attaches a host, tokenized or taken from the memo, to the open
// cluster and remembers its span doc[start:end] for the link's next
// report. A repeated name within one cluster keeps the first host.
func (b *builder) addHost(h *gxml.Host, start, end int) {
	if _, dup := b.curClu.hosts[h.Name]; dup {
		return
	}
	b.curClu.hosts[h.Name] = h
	b.curClu.order = append(b.curClu.order, h.Name)
	b.seenClu[h.Name] = memoHost{off: start, end: end, host: h}
}

// handler returns the gxml callbacks that feed the builder.
func (b *builder) handler() *gxml.Handler {
	return &gxml.Handler{
		OfferHost: b.offerHost,
		StartGrid: func(name, authority string, lt int64) {
			g := &gxml.Grid{Name: name, Authority: authority, LocalTime: lt}
			if len(b.gridStack) == 0 {
				b.out.grids = append(b.out.grids, g)
				if b.out.authority == "" {
					b.out.authority = authority
				}
				if b.out.localtime == 0 {
					b.out.localtime = lt
				}
			} else {
				parent := b.gridStack[len(b.gridStack)-1]
				parent.Grids = append(parent.Grids, g)
			}
			b.gridStack = append(b.gridStack, g)
			b.summStack = append(b.summStack, nil)
		},
		EndGrid: func() {
			g := b.gridStack[len(b.gridStack)-1]
			if s := b.summStack[len(b.summStack)-1]; s != nil {
				g.Summary = s
			}
			b.gridStack = b.gridStack[:len(b.gridStack)-1]
			b.summStack = b.summStack[:len(b.summStack)-1]
		},
		StartCluster: func(name, owner, url string, lt int64) {
			b.prevClu = b.prev.clusters[name]
			if b.seenClu = b.seen[name]; b.seenClu == nil {
				b.seenClu = make(map[string]memoHost, len(b.prevClu))
				b.seen[name] = b.seenClu
			}
			b.curClu = newClusterData(name, owner, url, lt, len(b.prevClu))
			b.curGXML = &gxml.Cluster{Name: name, Owner: owner, URL: url, LocalTime: lt}
			if len(b.gridStack) > 0 {
				b.curClu.inGrid = true
				parent := b.gridStack[len(b.gridStack)-1]
				parent.Clusters = append(parent.Clusters, b.curGXML)
			}
			if b.out.localtime == 0 {
				b.out.localtime = lt
			}
		},
		EndCluster: func() {
			b.curClu.finalize(b.summarize)
			if _, dup := b.out.clusters[b.curClu.meta.Name]; !dup {
				b.out.clusters[b.curClu.meta.Name] = b.curClu
				b.out.clusterOrder = append(b.out.clusterOrder, b.curClu.meta.Name)
			}
			// Share host storage with the grid-tree shadow node.
			b.curGXML.Hosts = make([]*gxml.Host, 0, len(b.curClu.order))
			for _, name := range b.curClu.order {
				b.curGXML.Hosts = append(b.curGXML.Hosts, b.curClu.hosts[name])
			}
			b.curGXML.Summary = b.curClu.summary
			b.curClu, b.curGXML = nil, nil
		},
		StartHost: func(h gxml.Host) {
			hh := h
			b.curHost = &hh
		},
		EndHost: func(start, end int) {
			b.parsed++
			b.addHost(b.curHost, start, end)
		},
		Metric: func(m metric.Metric) {
			b.curHost.Metrics = append(b.curHost.Metrics, m)
		},
		SummaryHosts: func(up, down uint32) {
			s := b.currentSummary()
			if s != nil {
				s.HostsUp, s.HostsDown = up, down
			}
		},
		SummaryMetric: func(sm summary.Metric) {
			if s := b.currentSummary(); s != nil {
				s.AddReduced(sm)
			}
		},
	}
}

// currentSummary locates the summary under construction for the
// innermost open grid or cluster.
func (b *builder) currentSummary() *summary.Summary {
	if b.curClu != nil {
		// Cluster in summary form (a child served a cluster-summary
		// query); keep it on the cluster.
		if b.curClu.summary == nil {
			b.curClu.summary = summary.New()
		}
		return b.curClu.summary
	}
	if n := len(b.summStack); n > 0 {
		if b.summStack[n-1] == nil {
			b.summStack[n-1] = summary.New()
		}
		return b.summStack[n-1]
	}
	return nil
}

// finish computes the source-level reduction (when summarizing) and
// returns the result.
func (b *builder) finish() *sourceData {
	if !b.summarize {
		return b.out
	}
	b.out.summary = b.out.summaryOf()
	return b.out
}
