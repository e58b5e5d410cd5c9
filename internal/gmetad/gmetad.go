// Package gmetad implements the Ganglia wide-area monitor, the system
// the paper is about.
//
// A gmetad polls a configured set of data sources — gmond clusters and
// child gmetads — over TCP, parses their Ganglia XML into a three-level
// hash-table DOM (data sources → hosts or summaries → metrics, paper
// §2.3.2), computes additive summaries, archives metric histories in
// round-robin databases, and answers path queries from viewers and
// parent gmetads.
//
// Two designs are provided, selected by Config.Mode:
//
//   - OneLevel reproduces the legacy design (paper §2.1, Ganglia
//     2.5.1): every node reports the union of its children's data at
//     full resolution and archives every metric in its subtree, so the
//     root bears the load of the entire cluster set.
//   - NLevel is the paper's contribution (§2.2, Ganglia 2.5.4): a node
//     is the authority only for its local clusters; remote grids are
//     polled, kept and re-reported in O(m) summary form, with an
//     authority URL pointing at the child that owns the detail.
//
// Polling and parsing run on their own time scale, decoupled from query
// service by per-source snapshot swapping under fine-grained locks
// (§2.3.1): a query arriving during a parse is answered from the
// previous snapshot, trading freshness for latency.
package gmetad

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/rrd"
	"ganglia/internal/transport"
	"ganglia/internal/vfs"
)

// DefaultPollInterval is the paper's polling cadence: "Gmeta system
// gathers data from sources at a low frequency polling interval,
// generally every 15 seconds" (§2.3.1).
const DefaultPollInterval = 15 * time.Second

// defaultMaxReportBytes is the default cap on one source download.
const defaultMaxReportBytes = 64 << 20

// Per-address retry backoff: the first failure holds an address back
// addrBackoffBase, each further consecutive failure doubles the window
// up to addrBackoffMax, and every window carries ±20 % jitter.
const (
	addrBackoffBase = 15 * time.Second
	addrBackoffMax  = 2 * time.Minute
)

// breakerStretchPolls caps an open breaker's stretched cadence, in
// multiples of PollInterval.
const breakerStretchPolls = 4

// defaultBreakerThreshold is how many consecutive failed polls open a
// source's circuit breaker by default: at the default 15 s cadence, a
// source dead for ~2.5 minutes starts being polled less often.
const defaultBreakerThreshold = 10

// Mode selects the monitoring-tree design under test.
type Mode int

const (
	// NLevel is the paper's scalable design: summaries for remote
	// grids, full resolution only for local clusters.
	NLevel Mode = iota
	// OneLevel is the legacy design: full resolution and full archives
	// for the entire subtree.
	OneLevel
)

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	switch m {
	case NLevel:
		return "N-level"
	case OneLevel:
		return "1-level"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// SourceKind distinguishes the two kinds of data source.
type SourceKind int

const (
	// SourceGmond is a leaf cluster served by gmond agents; this
	// gmetad is its authority and keeps it at full resolution.
	SourceGmond SourceKind = iota
	// SourceGmetad is a child wide-area monitor owning a subtree.
	SourceGmetad
)

// DataSource names one child of this gmetad in the monitoring tree.
// The trust edge of paper fig 2 is realized by listing the child here.
type DataSource struct {
	// Name labels the cluster or grid this source feeds.
	Name string
	// Kind selects the polling contract: gmond dumps XML on connect,
	// gmetad accepts a query line first.
	Kind SourceKind
	// Addrs is the ordered failover list. All gmond agents hold
	// redundant global state, so any responding address yields the
	// complete cluster report; gmetad walks the list until one answers
	// (paper fig 1) and retries failed sources every poll.
	Addrs []string

	// Subscribe selects the delta-subscription link for a child gmetad
	// instead of the poll cadence: the child serves a persistent stream
	// of generation-tagged delta frames (see internal/stream) and this
	// daemon applies them as they arrive. Any stream fault — a
	// generation gap, frame corruption, an idle timeout, a disconnect —
	// tears the link down and the source falls back to the proven poll
	// path until a clean resync succeeds. Only valid for SourceGmetad:
	// gmond's dump-on-connect contract cannot carry the subscription
	// handshake.
	Subscribe bool
}

// Config configures a Gmetad.
type Config struct {
	// GridName names the grid this gmetad is authoritative for.
	GridName string
	// Authority is this daemon's URL, propagated upstream so coarse
	// summaries can be chased back to full-resolution data (§2.2).
	Authority string

	// Network is the stream fabric used to poll sources.
	Network transport.Network
	// Clock positions polling rounds and soft-state ages; defaults to
	// the system clock.
	Clock clock.Clock

	// Sources are the children in the monitoring tree.
	Sources []DataSource

	// Mode selects the 1-level or N-level design; default NLevel.
	Mode Mode

	// PollInterval is the source polling cadence for Run; defaults to
	// DefaultPollInterval. PollOnce ignores it.
	PollInterval time.Duration

	// ReadTimeout bounds one source download. The paper detects remote
	// failures "with TCP timeouts"; a source that connects but never
	// completes its report is failed after this long. Defaults to 30 s
	// (wall-clock, independent of the logical Clock).
	ReadTimeout time.Duration

	// MaxReportBytes bounds one source download's size. A garbled or
	// malicious source that streams bytes forever is failed (with
	// ErrReportTooLarge) once the cap is reached, so a single source
	// cannot grow this daemon's memory without bound. Defaults to
	// 64 MiB.
	MaxReportBytes int64

	// BreakerThreshold is how many consecutive failed polls open a
	// source's circuit breaker: past it, the source's poll cadence is
	// stretched exponentially, up to 4× PollInterval — a dead source is
	// polled less often, never abandoned, per the paper's
	// retry-every-round fault model (§2.1). Defaults to 10; negative
	// disables the breaker.
	BreakerThreshold int

	// Archive enables round-robin metric histories.
	Archive bool
	// ArchiveSpec configures the databases; defaults to
	// rrd.DefaultSpec.
	ArchiveSpec rrd.Spec
	// ArchivePath, if set, is the base path of the archive snapshots:
	// checkpoints are published as <ArchivePath>.gen-<seq> generations,
	// and New restores the newest generation that verifies, falling
	// back generation by generation and quarantining corrupt files
	// (renamed to <ArchivePath>.corrupt-<seq>) instead of refusing to
	// start. A legacy single-file snapshot at ArchivePath itself is
	// accepted as the oldest candidate. The real gmetad keeps its RRD
	// files on disk for the same reason — history must survive daemon
	// restarts, including unclean ones.
	ArchivePath string

	// CheckpointInterval enables the background checkpointer: while
	// Run or PollOnce drives the daemon, the archive pool is snapshot
	// to a new generation whenever the (jittered) interval has elapsed
	// on the injected clock. Zero disables automatic checkpoints;
	// SaveArchives and Checkpoint remain available for manual and
	// shutdown saves. Requires ArchivePath.
	CheckpointInterval time.Duration

	// FS is the filesystem used for archive persistence; defaults to
	// the real filesystem. Crash tests inject a vfs.FaultFS.
	FS vfs.FS

	// QueryReadTimeout bounds how long the interactive query port
	// waits for a client's query line. A client that connects and goes
	// silent is disconnected after this long instead of pinning a
	// goroutine forever. Defaults to 10 s (wall-clock).
	QueryReadTimeout time.Duration

	// WriteTimeout bounds writing one query response. A client that
	// stops reading mid-response is disconnected. Defaults to 30 s
	// (wall-clock).
	WriteTimeout time.Duration

	// StreamHeartbeat is how often an idle subscription feed emits a
	// heartbeat frame, so subscribers can tell "no changes" from "dead
	// peer". Defaults to 5 s (on the injected clock).
	StreamHeartbeat time.Duration

	// StreamIdleTimeout is how long a subscriber tolerates total
	// silence on its link before declaring it dead and falling back to
	// polling. Must exceed the producer's heartbeat cadence. Defaults
	// to 6× StreamHeartbeat (wall-clock, like ReadTimeout — link
	// liveness is a property of the real network).
	StreamIdleTimeout time.Duration

	// WatchTimeout bounds a ?filter=watch long-poll: if the tree does
	// not change within it, the current answer is served anyway.
	// Defaults to 30 s (on the injected clock).
	WatchTimeout time.Duration

	// MaxConns caps concurrent serve connections across both ports.
	// Connections beyond the cap are answered with an error comment
	// and closed immediately (counted as RejectedConns), so a
	// connection flood degrades to fast rejections instead of
	// unbounded goroutine growth. Defaults to 1024.
	MaxConns int

	// EmitDTD embeds the Ganglia DTD in every query response, matching
	// the real daemons' self-describing output. Off by default: the
	// declaration adds ~2 KiB to every answer.
	EmitDTD bool

	// FabricSink, when set, receives every numeric metric of each
	// freshly published snapshot as flattened fabric samples (grid,
	// cluster, host, metric, value, poll time) — the egress half of the
	// metrics hub, feeding Carbon/Prometheus sinks. Offer must never
	// block; fabric.SinkManager's bounded drop-oldest queues qualify.
	FabricSink SampleSink

	// Logger, if set, receives operational events: source failures,
	// recoveries and failovers. Nil disables logging (tests and
	// experiments run silent).
	Logger *log.Logger
}

// logf logs an operational event when a logger is configured.
func (g *Gmetad) logf(format string, args ...any) {
	if g.cfg.Logger != nil {
		g.cfg.Logger.Printf("gmetad[%s]: "+format, append([]any{g.cfg.GridName}, args...)...)
	}
}

// Gmetad is one wide-area monitor daemon.
type Gmetad struct {
	cfg  Config
	acct Accounting
	pool *rrd.Pool

	// slots indexes the sources by name, order lists them in
	// configuration order and byName in name order, the order Summary
	// folds them in; all three are built by New and never change.
	slots  map[string]*sourceSlot
	order  []*sourceSlot
	byName []*sourceSlot

	// epoch counts snapshot publications and source health changes;
	// the response cache is valid only within one epoch.
	epoch atomic.Uint64
	cache *responseCache
	// hdrPrefix is the precomputed response header up to the root
	// grid's LOCALTIME value (see buildHeaderPrefix).
	hdrPrefix []byte
	// sem is the max-connections semaphore.
	sem chan struct{}

	// ckptMu serializes checkpoints and guards the checkpointer's
	// schedule; it is never held while the pool lock is (the pool is
	// snapshotted by WriteSnapshot under its own lock, briefly).
	ckptMu   sync.Mutex
	ckptSeq  uint64     // next generation sequence number
	ckptNext time.Time  // next scheduled checkpoint on the injected clock
	ckptRng  *rand.Rand // deterministic checkpoint jitter

	listeners listenerSet
	// streams tracks the long-lived subscription and watch connections
	// this daemon is serving, so Drain can end them (their handlers are
	// reaped through the ordinary listener WaitGroup).
	streams streamSet
	// notifyMu guards notify, the broadcast channel closed (and
	// replaced) on every epoch bump; stream feeds and watch queries
	// block on it instead of polling the epoch.
	notifyMu sync.Mutex
	notify   chan struct{}
	// subWG tracks subscriber goroutines for leak-free shutdown.
	subWG sync.WaitGroup
}

// Epoch returns the current poll epoch. It advances whenever a source
// publishes a new snapshot or changes health; cached query responses
// never cross an epoch boundary.
func (g *Gmetad) Epoch() uint64 { return g.epoch.Load() }

// bumpEpoch invalidates all cached query responses and wakes every
// stream feed and watch query blocked on the change broadcast.
func (g *Gmetad) bumpEpoch() {
	g.epoch.Add(1)
	g.notifyMu.Lock()
	ch := g.notify
	g.notify = nil
	g.notifyMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// epochChanged returns a channel closed by the next epoch bump. Waiters
// must re-arm (call again) after each wake; arming before reading the
// epoch closes the lost-wakeup window.
func (g *Gmetad) epochChanged() <-chan struct{} {
	g.notifyMu.Lock()
	defer g.notifyMu.Unlock()
	if g.notify == nil {
		g.notify = make(chan struct{})
	}
	return g.notify
}

// New creates a Gmetad. It performs no I/O until PollOnce, Run or a
// Serve method is invoked.
func New(cfg Config) (*Gmetad, error) {
	if cfg.GridName == "" {
		return nil, fmt.Errorf("gmetad: empty grid name")
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("gmetad: nil network")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.MaxReportBytes <= 0 {
		cfg.MaxReportBytes = defaultMaxReportBytes
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = defaultBreakerThreshold
	}
	if len(cfg.ArchiveSpec.Archives) == 0 {
		cfg.ArchiveSpec = rrd.DefaultSpec()
	}
	if cfg.QueryReadTimeout <= 0 {
		cfg.QueryReadTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 5 * time.Second
	}
	if cfg.StreamIdleTimeout <= 0 {
		cfg.StreamIdleTimeout = 6 * cfg.StreamHeartbeat
	}
	if cfg.WatchTimeout <= 0 {
		cfg.WatchTimeout = 30 * time.Second
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	g := &Gmetad{
		cfg:       cfg,
		slots:     make(map[string]*sourceSlot, len(cfg.Sources)),
		hdrPrefix: buildHeaderPrefix(cfg.GridName, cfg.Authority, cfg.EmitDTD),
		cache:     newResponseCache(cacheMaxEntries, cacheMaxBytes),
		sem:       make(chan struct{}, cfg.MaxConns),
	}
	if cfg.Archive {
		if cfg.ArchivePath != "" {
			// Recovery never fails New: a corrupt or torn snapshot is
			// quarantined and an older generation (or an empty pool)
			// takes its place. Losing history degrades the monitor;
			// refusing to start kills it.
			g.recoverArchives()
		}
		if g.pool == nil {
			g.pool = rrd.NewPool(cfg.ArchiveSpec)
		}
	}
	// Seeded by the grid name: daemons sharing a cadence draw different
	// jitter, so a fleet does not checkpoint in lockstep.
	g.ckptRng = rand.New(rand.NewSource(int64(hashName(cfg.GridName)) ^ 0x636b7074)) // "ckpt"
	for _, src := range cfg.Sources {
		if src.Name == "" {
			return nil, fmt.Errorf("gmetad: data source with empty name")
		}
		if len(src.Addrs) == 0 {
			return nil, fmt.Errorf("gmetad: data source %q has no addresses", src.Name)
		}
		if _, dup := g.slots[src.Name]; dup {
			return nil, fmt.Errorf("gmetad: duplicate data source %q", src.Name)
		}
		slot := &sourceSlot{cfg: src}
		if src.Subscribe {
			// Only a child gmetad speaks the stream handshake.
			if src.Kind != SourceGmetad {
				return nil, fmt.Errorf("gmetad: data source %q: Subscribe requires a gmetad child", src.Name)
			}
			slot.sub = &subscriber{}
		}
		g.slots[src.Name] = slot
		g.order = append(g.order, slot)
	}
	g.byName = slices.Clone(g.order)
	slices.SortFunc(g.byName, func(a, b *sourceSlot) int { return strings.Compare(a.cfg.Name, b.cfg.Name) })
	return g, nil
}

// GridName returns the configured grid name.
func (g *Gmetad) GridName() string { return g.cfg.GridName }

// Mode returns the configured design.
func (g *Gmetad) Mode() Mode { return g.cfg.Mode }

// Accounting returns the live work counters.
func (g *Gmetad) Accounting() *Accounting { return &g.acct }

// Pool returns the archive pool, or nil when archiving is disabled.
func (g *Gmetad) Pool() *rrd.Pool { return g.pool }

// SourceNames returns the configured source names in order.
func (g *Gmetad) SourceNames() []string {
	out := make([]string, len(g.order))
	for i, slot := range g.order {
		out[i] = slot.cfg.Name
	}
	return out
}

// AddrStatus describes one address's health within a source.
type AddrStatus struct {
	Addr string
	// Fails is the consecutive failure count charged to this address.
	Fails int
	// RetryAt is when backoff next allows a dial (zero = eligible now).
	RetryAt time.Time
}

// SourceStatus describes one source's health.
type SourceStatus struct {
	Name       string
	Failed     bool
	DownSince  time.Time
	LastPolled time.Time
	ActiveAddr string
	LastError  string

	// ConsecFails counts consecutive failed polls (the circuit
	// breaker's input); zero after any successful poll.
	ConsecFails int
	// NextPollAt is when the breaker next allows a poll; zero when the
	// breaker is closed and the source polls on the normal cadence.
	NextPollAt time.Time
	// Addrs reports per-address dial health in failover-list order.
	Addrs []AddrStatus

	// Streaming reports a live subscription link feeding this source
	// (polling is suspended while it holds); StreamGen is the feed
	// generation last applied over it.
	Streaming bool
	StreamGen uint64
}

// Status reports per-source health, for operators and tests.
func (g *Gmetad) Status() []SourceStatus {
	out := make([]SourceStatus, 0)
	for _, s := range g.order {
		s.mu.RLock()
		st := SourceStatus{
			Name:        s.cfg.Name,
			Failed:      s.failed,
			DownSince:   s.downSince,
			ActiveAddr:  s.activeAddr,
			ConsecFails: s.consecFails,
			NextPollAt:  s.nextPollAt,
		}
		for _, a := range s.cfg.Addrs {
			as := AddrStatus{Addr: a}
			if h := s.health[a]; h != nil {
				as.Fails, as.RetryAt = h.fails, h.retryAt
			}
			st.Addrs = append(st.Addrs, as)
		}
		if s.data != nil {
			st.LastPolled = s.data.polled
		}
		if s.lastErr != nil {
			st.LastError = s.lastErr.Error()
		}
		s.mu.RUnlock()
		if s.sub != nil {
			st.Streaming, st.StreamGen = s.sub.status()
		}
		out = append(out, st)
	}
	return out
}

// PollOnce runs one polling round at now: each source is polled in its
// own goroutine, like the threaded C implementation's poller per data
// source, so a hung source delays only its own snapshot (bounded by
// ReadTimeout). Sources whose circuit breaker is open are skipped until
// their stretched cadence comes due; a due checkpoint runs after the
// round, from the poll loop, never the serve path. Rounds must not
// overlap: one goroutine at a time drives a daemon's rounds (each
// slot's poller owns that slot's host memo).
func (g *Gmetad) PollOnce(now time.Time) {
	var wg sync.WaitGroup
	for _, slot := range g.order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.safePoll(slot, now)
		}()
	}
	wg.Wait()
	g.maybeCheckpoint(now)
}

// Run runs a PollOnce round at once and then every PollInterval on the
// configured clock until done is closed.
func (g *Gmetad) Run(done <-chan struct{}) {
	g.PollOnce(g.cfg.Clock.Now())
	t := clock.NewTicker(g.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			g.PollOnce(g.cfg.Clock.Now())
		}
	}
}

// SaveArchives snapshots the archive pool to a new durable generation
// under Config.ArchivePath. It is Checkpoint under its historical name.
func (g *Gmetad) SaveArchives() error { return g.Checkpoint() }

// Drain performs the graceful half of shutdown: end the long-lived
// stream and watch connections (each subscription feed flushes a final
// BYE resync marker so subscribers fall back to polling cleanly), stop
// this daemon's own subscriber goroutines, stop accepting new
// connections, then wait up to timeout (wall clock) for in-flight
// responses to finish. It reports whether every handler completed;
// either way the daemon no longer serves, and a final Checkpoint plus
// Close may follow. Handlers still running after a false return are
// abandoned — their deadlines will reap them.
func (g *Gmetad) Drain(timeout time.Duration) bool {
	g.streams.shutdown()
	g.closeSubscribers()
	return g.listeners.drainAll(timeout)
}

// Close stops all Serve loops, stream connections and subscribers.
func (g *Gmetad) Close() {
	g.streams.shutdown()
	g.closeSubscribers()
	g.listeners.closeAll()
}
