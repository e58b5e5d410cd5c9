package fabric

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmond"
	"ganglia/internal/metric"
	"ganglia/internal/transport"
)

// statsdSource and pushSource label the SOURCE attribute of metrics
// admitted through each receiver.
const (
	statsdSource = "statsd"
	pushSource   = "push"
)

// DefaultFlushEvery is the hub's aggregation window: how often Run
// folds pending statsd/push state into announcements.
const DefaultFlushEvery = 10 * time.Second

// DefaultMetricTMAX matches cmd/gmetric's default -tmax: a fabric
// metric silent for 60 s starts reading as stale.
const DefaultMetricTMAX = 60

// maxDatagram bounds one received statsd packet, mirroring the UDP bus.
const maxDatagram = 64 * 1024

// Config configures a Hub.
type Config struct {
	// Cluster names the synthetic cluster the hub's metrics form;
	// Owner and URL annotate its CLUSTER tag.
	Cluster string
	Owner   string
	URL     string

	// Host and IP identify the default node metrics are attributed to:
	// statsd lines carry no host, so they land here, as do push
	// metrics that omit one.
	Host string
	IP   string

	// Clock supplies time; defaults to the system clock.
	Clock clock.Clock

	// HeartbeatEvery is the synthetic heartbeat interval in seconds
	// for hosts the hub speaks for; defaults to
	// gmond.DefaultHeartbeatEvery.
	HeartbeatEvery uint32

	// FlushEvery is Run's aggregation cadence; defaults to
	// DefaultFlushEvery. Tests drive Flush directly instead.
	FlushEvery time.Duration

	// MetricTMAX and MetricDMAX are the soft-state lifetimes stamped
	// on admitted metrics. TMAX defaults to DefaultMetricTMAX; DMAX
	// defaults to zero (keep until overwritten).
	MetricTMAX uint32
	MetricDMAX uint32
}

// hubHost is one node the hub speaks for.
type hubHost struct {
	ip     string
	lastHB time.Time
	hasHB  bool
}

// aggKey addresses one aggregate: one bucket on one host.
type aggKey struct {
	host   string
	bucket string
}

// agg is the between-flushes state of one metric.
type agg struct {
	kind StatKind

	total float64 // counter: running total, persists across flushes
	level float64 // gauge: current level

	timerSum   float64 // timer: window sum
	timerCount int64   // timer: window observations

	units  string // "" for counters/gauges, "ms" for timers, push-supplied otherwise
	source string // SOURCE attribute: "statsd" or "push"
	dirty  bool   // received data since the last flush
}

// Hub is the receiver half of the fabric: a statsd/push ingest front
// that maintains a real gmond cluster pool behind it. Every admitted
// metric becomes an ordinary XDR announcement delivered through an
// in-process bus into a mute gmond agent, so the hub serves the exact
// gmond TCP contract — same soft state, same sorted, deterministic XML
// — and any gmetad can poll it as a SourceGmond data source.
type Hub struct {
	cfg   Config
	acct  Accounting
	start time.Time

	bus  *transport.InMemBus
	pool *gmond.Gmond

	mu    sync.Mutex
	hosts map[string]*hubHost
	aggs  map[aggKey]*agg

	lifeMu    sync.Mutex
	closed    bool
	packetCon []net.PacketConn
	listeners []net.Listener
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewHub creates a hub. It performs no I/O until ListenStatsd,
// ServePush, Serve or Run is invoked.
func NewHub(cfg Config) (*Hub, error) {
	if cfg.Cluster == "" {
		return nil, fmt.Errorf("fabric: empty cluster name")
	}
	if cfg.Host == "" {
		return nil, fmt.Errorf("fabric: empty host name")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = gmond.DefaultHeartbeatEvery
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = DefaultFlushEvery
	}
	if cfg.MetricTMAX == 0 {
		cfg.MetricTMAX = DefaultMetricTMAX
	}
	bus := transport.NewInMemBus()
	pool, err := gmond.New(gmond.Config{
		Cluster:        cfg.Cluster,
		Owner:          cfg.Owner,
		URL:            cfg.URL,
		Host:           cfg.Host,
		IP:             cfg.IP,
		Bus:            bus,
		Clock:          cfg.Clock,
		HeartbeatEvery: cfg.HeartbeatEvery,
		// Mute: the pool only listens; the hub speaks for its hosts by
		// sending announcements on the internal bus.
		Mute: true,
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: pool: %w", err)
	}
	return &Hub{
		cfg:   cfg,
		start: cfg.Clock.Now(),
		bus:   bus,
		pool:  pool,
		hosts: make(map[string]*hubHost),
		aggs:  make(map[aggKey]*agg),
		done:  make(chan struct{}),
	}, nil
}

// Cluster returns the hub's cluster name.
func (h *Hub) Cluster() string { return h.cfg.Cluster }

// Accounting returns the live ingest counters.
func (h *Hub) Accounting() *Accounting { return &h.acct }

// IngestStatsd ingests one statsd packet (one or more newline-separated
// lines). Parse failures are counted per line and never abort the rest
// of the packet: one garbled line must not cost its neighbors.
func (h *Hub) IngestStatsd(pkt []byte) {
	h.acct.statsdPackets.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	splitLines(pkt, func(line []byte) {
		s, err := ParseStatsd(line)
		if err != nil {
			h.acct.parseErrors.Add(1)
			return
		}
		h.acct.receivedLines.Add(1)
		h.applyStat(h.cfg.Host, h.cfg.IP, s)
	})
}

// applyStat folds one parsed stat into the pending aggregate. Caller
// holds mu.
func (h *Hub) applyStat(host, ip string, s Stat) {
	h.touchHost(host, ip)
	key := aggKey{host: host, bucket: s.Bucket}
	a := h.aggs[key]
	if a == nil || a.kind != s.Kind {
		// First sight, or the bucket changed type: a type change resets
		// the aggregate rather than mixing incompatible state.
		a = &agg{kind: s.Kind}
		h.aggs[key] = a
	}
	a.source = statsdSource
	switch s.Kind {
	case KindCounter:
		a.total += s.Value / s.SampleRate
	case KindGauge:
		if s.GaugeDelta {
			a.level += s.Value
		} else {
			a.level = s.Value
		}
	case KindTimer:
		a.timerSum += s.Value
		a.timerCount++
		a.units = "ms"
	}
	a.dirty = true
}

// touchHost registers a node the hub speaks for. Caller holds mu.
func (h *Hub) touchHost(host, ip string) *hubHost {
	hh := h.hosts[host]
	if hh == nil {
		hh = &hubHost{}
		h.hosts[host] = hh
	}
	if ip != "" {
		hh.ip = ip
	}
	return hh
}

// Flush folds every pending aggregate into announcements and delivers
// them to the pool, as of now: due heartbeats first (liveness must not
// wait behind metric work, like gmond.Step), then each host's dirty
// metrics in sorted order, so a flush is deterministic for a given
// ingest history.
func (h *Hub) Flush(now time.Time) {
	var out []metric.Announcement

	h.mu.Lock()
	h.acct.flushes.Add(1)
	hostNames := make([]string, 0, len(h.hosts))
	for name := range h.hosts {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)
	hbEvery := time.Duration(h.cfg.HeartbeatEvery) * time.Second
	for _, name := range hostNames {
		hh := h.hosts[name]
		if !hh.hasHB || now.Sub(hh.lastHB) >= hbEvery {
			hh.hasHB = true
			hh.lastHB = now
			hb := metric.Heartbeat(h.start.Unix(), h.cfg.HeartbeatEvery)
			out = append(out, metric.Announcement{Host: name, IP: hh.ip, Metric: hb})
		}
		var buckets []string
		for key, a := range h.aggs {
			if key.host == name && a.dirty {
				buckets = append(buckets, key.bucket)
			}
		}
		sort.Strings(buckets)
		for _, bucket := range buckets {
			a := h.aggs[aggKey{host: name, bucket: bucket}]
			m, ok := h.metricOf(bucket, a)
			if !ok {
				continue
			}
			out = append(out, metric.Announcement{Host: name, IP: hh.ip, Metric: m})
			a.dirty = false
			a.timerSum, a.timerCount = 0, 0
		}
	}
	h.mu.Unlock()

	// Encode and send outside the lock: InMemBus delivery is synchronous
	// into the pool's own lock, and I/O never runs under ours.
	for _, ann := range out {
		_ = h.bus.Send(ann.Encode())
	}
	h.acct.announcements.Add(int64(len(out)))
}

// metricOf shapes one aggregate into the metric it announces. Caller
// holds mu.
func (h *Hub) metricOf(bucket string, a *agg) (metric.Metric, bool) {
	m := metric.Metric{
		Name:   bucket,
		Units:  a.units,
		TMAX:   h.cfg.MetricTMAX,
		DMAX:   h.cfg.MetricDMAX,
		Source: a.source,
	}
	switch a.kind {
	case KindCounter:
		m.Val = metric.NewDouble(a.total)
		m.Slope = metric.SlopePositive
	case KindGauge:
		m.Val = metric.NewDouble(a.level)
		m.Slope = metric.SlopeBoth
	case KindTimer:
		if a.timerCount == 0 {
			return m, false
		}
		m.Val = metric.NewDouble(a.timerSum / float64(a.timerCount))
		m.Slope = metric.SlopeBoth
	default:
		return m, false
	}
	return m, true
}

// WriteXML serializes the hub's current cluster report to w — the same
// bytes a poll of the hub would download.
func (h *Hub) WriteXML(w io.Writer) error { return h.pool.WriteXML(w) }

// Serve accepts connections on l and writes one full cluster report
// per connection — the gmond TCP contract, so a gmetad lists the hub
// as an ordinary SourceGmond data source. Serve returns when the
// listener is closed.
func (h *Hub) Serve(l net.Listener) { h.pool.Serve(l) }

// ListenStatsd consumes statsd datagrams from pc until it is closed
// (Close closes it). The read loop runs on its own panic-isolated
// goroutine.
func (h *Hub) ListenStatsd(pc net.PacketConn) {
	h.lifeMu.Lock()
	if h.closed {
		h.lifeMu.Unlock()
		_ = pc.Close()
		return
	}
	h.packetCon = append(h.packetCon, pc)
	h.wg.Add(1)
	h.lifeMu.Unlock()
	go h.statsdLoop(pc)
}

// recoverReceiverPanic isolates one receiver goroutine: a panic while
// ingesting hostile bytes must cost that receiver, not the daemon.
func (h *Hub) recoverReceiverPanic() {
	if r := recover(); r != nil {
		h.acct.receiverPanics.Add(1)
	}
}

// statsdLoop reads datagrams into a fixed buffer; each packet is
// copied out by the parser before the buffer is reused.
func (h *Hub) statsdLoop(pc net.PacketConn) {
	defer h.wg.Done()
	defer h.recoverReceiverPanic()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		h.IngestStatsd(buf[:n])
	}
}

// Run drives the hub against its clock until done is closed: pending
// aggregates are flushed into the pool every FlushEvery. Production
// binaries use Run; tests call Flush with a virtual clock.
func (h *Hub) Run(done <-chan struct{}) {
	t := clock.NewTicker(h.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-h.done:
			return
		case <-t.C:
			h.Flush(h.cfg.Clock.Now())
		}
	}
}

// Close stops every receiver and serve loop and waits for their
// goroutines to exit.
func (h *Hub) Close() {
	h.lifeMu.Lock()
	if h.closed {
		h.lifeMu.Unlock()
		return
	}
	h.closed = true
	close(h.done)
	pcs := h.packetCon
	h.packetCon = nil
	ls := h.listeners
	h.listeners = nil
	h.lifeMu.Unlock()
	for _, pc := range pcs {
		_ = pc.Close()
	}
	for _, l := range ls {
		_ = l.Close()
	}
	h.pool.Close()
	_ = h.bus.Close()
	h.wg.Wait()
}
