// Package gmond implements the Ganglia local-area cluster monitor.
//
// One gmond runs on every cluster node. Each agent periodically
// multicasts its own metrics on the cluster channel and listens to its
// neighbors' announcements, so every agent accumulates redundant global
// knowledge of the whole cluster — the paper's "redundant, leaderless
// network where nodes listen to their neighbors rather than polling
// them" (§1). Because state is learned from the channel, the monitor
// needs no a-priori knowledge of cluster membership: new nodes appear
// when they first announce, and departed nodes age out through soft
// state (TN/TMAX/DMAX lifetimes).
//
// Any agent can serve a complete cluster report as Ganglia XML over a
// stream connection; the wide-area gmetad exploits that redundancy to
// fail over between nodes of a monitored cluster (paper fig 1).
package gmond

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/oscollect"
	"ganglia/internal/transport"
)

// DefaultHeartbeatEvery is the default heartbeat announce interval in
// seconds. It doubles as the heartbeat's TMAX: a host whose heartbeat
// is older than 4×TMAX is considered down.
const DefaultHeartbeatEvery = 20

// Config configures one gmond agent.
type Config struct {
	// Cluster is the cluster name stamped on reports.
	Cluster string
	// Owner and URL annotate the CLUSTER tag.
	Owner string
	URL   string

	// Host is this node's name; IP its address in text form.
	Host string
	IP   string

	// Bus is the cluster's multicast channel.
	Bus transport.Bus
	// Clock supplies time; defaults to the system clock.
	Clock clock.Clock
	// Collector supplies metric values; required unless Mute.
	Collector oscollect.Collector
	// Metrics is the collection schedule; defaults to metric.Standard.
	Metrics []metric.Definition

	// HeartbeatEvery is the heartbeat interval in seconds; defaults to
	// DefaultHeartbeatEvery.
	HeartbeatEvery uint32

	// HostDMAX is the soft-state delete horizon for departed hosts, in
	// seconds: a host silent this long is purged from the cluster view
	// entirely (after first spending 4×TMAX reported as down). Zero
	// keeps departed hosts forever, which preserves forensic zero
	// records but lets state grow in very dynamic clusters.
	HostDMAX uint32

	// Deaf agents do not listen to the channel (they announce only).
	// Mute agents do not announce (they listen only). The names follow
	// gmond's configuration vocabulary.
	Deaf bool
	Mute bool
}

// schedEntry tracks per-metric announce state.
type schedEntry struct {
	def          metric.Definition
	lastValue    float64
	hasLast      bool
	lastCollect  time.Time
	lastAnnounce time.Time
	current      metric.Value
	collected    bool
}

// hostEntry is everything this agent knows about one cluster node.
type hostEntry struct {
	name      string
	ip        string
	reported  time.Time // arrival time of the last heartbeat
	firstSeen time.Time
	metrics   map[string]*metricEntry
}

type metricEntry struct {
	m       metric.Metric
	updated time.Time // local arrival time of the last value
}

// Gmond is one local-area monitor agent.
type Gmond struct {
	cfg   Config
	start time.Time

	mu    sync.Mutex
	sched []schedEntry
	hosts map[string]*hostEntry

	unsubscribe func()

	// serving
	listeners   []net.Listener
	closedFlag  bool
	serveWG     sync.WaitGroup
	closeOnce   sync.Once
	closed      chan struct{}
	packetsIn   uint64
	packetsBad  uint64
	servePanics atomic.Int64
}

// ServePanics reports how many serve-connection handlers were recovered
// from a panic since the agent started.
func (g *Gmond) ServePanics() int64 { return g.servePanics.Load() }

// recoverServePanic isolates one connection handler: a panic while
// rendering a report must cost that connection, not the agent.
func (g *Gmond) recoverServePanic() {
	if r := recover(); r != nil {
		g.servePanics.Add(1)
	}
}

// New creates a gmond agent and, unless cfg.Deaf, subscribes it to the
// cluster channel. The agent does nothing until Step (or Run) drives
// it.
func New(cfg Config) (*Gmond, error) {
	if cfg.Cluster == "" {
		return nil, fmt.Errorf("gmond: empty cluster name")
	}
	if cfg.Host == "" {
		return nil, fmt.Errorf("gmond: empty host name")
	}
	if cfg.Bus == nil {
		return nil, fmt.Errorf("gmond: nil bus")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metric.Standard
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if cfg.Collector == nil && !cfg.Mute {
		return nil, fmt.Errorf("gmond: nil collector on a non-mute agent")
	}
	g := &Gmond{
		cfg:    cfg,
		start:  cfg.Clock.Now(),
		hosts:  make(map[string]*hostEntry),
		closed: make(chan struct{}),
	}
	for _, def := range cfg.Metrics {
		g.sched = append(g.sched, schedEntry{def: def})
	}
	if !cfg.Deaf {
		cancel, err := cfg.Bus.Subscribe(g.handlePacket)
		if err != nil {
			return nil, fmt.Errorf("gmond: subscribe: %w", err)
		}
		g.unsubscribe = cancel
	}
	return g, nil
}

// Host returns the agent's node name.
func (g *Gmond) Host() string { return g.cfg.Host }

// Cluster returns the cluster name.
func (g *Gmond) Cluster() string { return g.cfg.Cluster }

// StartTime returns the daemon start time (the heartbeat value).
func (g *Gmond) StartTime() time.Time { return g.start }

// Step advances the agent to now: metrics whose collection interval has
// elapsed are re-collected, and any metric due for announcement (value
// moved beyond its threshold, or TMAX since the last announce) is
// multicast, together with the heartbeat. Step is cheap when nothing is
// due, so callers may drive it at fine granularity.
func (g *Gmond) Step(now time.Time) {
	if g.cfg.Mute {
		return
	}
	var out [][]byte

	g.mu.Lock()
	// Heartbeat first: liveness must not wait behind metric work.
	hb := g.hosts[g.cfg.Host]
	needHB := hb == nil || now.Sub(hb.reported) >= time.Duration(g.cfg.HeartbeatEvery)*time.Second
	if needHB {
		m := metric.Heartbeat(g.start.Unix(), g.cfg.HeartbeatEvery)
		g.applyOwn(m, now)
		out = append(out, g.encode(m))
	}
	for i := range g.sched {
		e := &g.sched[i]
		every := time.Duration(e.def.CollectEvery) * time.Second
		if e.collected && now.Sub(e.lastCollect) < every {
			continue
		}
		val := g.cfg.Collector.Collect(e.def, now)
		e.current = val
		e.collected = true
		e.lastCollect = now

		announce := false
		if e.lastAnnounce.IsZero() ||
			now.Sub(e.lastAnnounce) >= time.Duration(e.def.TMAX)*time.Second {
			announce = true
		} else if e.def.ValueThreshold > 0 {
			if f, ok := val.Float64(); ok && e.hasLast {
				base := e.lastValue
				if base < 0 {
					base = -base
				}
				if base < 1 {
					base = 1
				}
				diff := f - e.lastValue
				if diff < 0 {
					diff = -diff
				}
				if diff/base > e.def.ValueThreshold {
					announce = true
				}
			}
		}
		if !announce {
			continue
		}
		e.lastAnnounce = now
		if f, ok := val.Float64(); ok {
			e.lastValue = f
			e.hasLast = true
		}
		m := metric.Metric{
			Name:   e.def.Name,
			Val:    val,
			Units:  e.def.Units,
			Slope:  e.def.Slope,
			TMAX:   e.def.TMAX,
			DMAX:   e.def.DMAX,
			Source: "gmond",
		}
		g.applyOwn(m, now)
		out = append(out, g.encode(m))
	}
	g.mu.Unlock()

	// Send outside the lock: InMemBus delivers synchronously and a
	// neighbor's handler must not contend with (or re-enter) our lock.
	for _, pkt := range out {
		_ = g.cfg.Bus.Send(pkt)
	}
}

// encode builds the announce packet for one of our metrics.
func (g *Gmond) encode(m metric.Metric) []byte {
	a := metric.Announcement{Host: g.cfg.Host, IP: g.cfg.IP, Metric: m}
	return a.Encode()
}

// applyOwn records our own metric locally. We do not depend on channel
// loopback for self-knowledge; duplicate delivery through the bus is
// filtered in handlePacket.
func (g *Gmond) applyOwn(m metric.Metric, now time.Time) {
	g.apply(g.cfg.Host, g.cfg.IP, m, now)
}

// apply updates cluster state with one announcement. Caller holds mu.
func (g *Gmond) apply(host, ip string, m metric.Metric, now time.Time) {
	h := g.hosts[host]
	if h == nil {
		h = &hostEntry{
			name:      host,
			ip:        ip,
			firstSeen: now,
			reported:  now,
			metrics:   make(map[string]*metricEntry),
		}
		g.hosts[host] = h
	}
	if ip != "" {
		h.ip = ip
	}
	if m.Name == metric.HeartbeatName {
		h.reported = now
	}
	me := h.metrics[m.Name]
	if me == nil {
		me = &metricEntry{}
		h.metrics[m.Name] = me
	}
	me.m = m
	me.updated = now
}

// handlePacket is the bus subscription callback.
func (g *Gmond) handlePacket(pkt []byte) {
	a, err := metric.DecodeAnnouncement(pkt)
	if err != nil {
		g.mu.Lock()
		g.packetsBad++
		g.mu.Unlock()
		return
	}
	// Own announcements echoed back by the channel are re-applied:
	// apply is idempotent, and external publishers (gmetric) may
	// legitimately announce metrics under this host's name.
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	g.packetsIn++
	g.apply(a.Host, a.IP, a.Metric, now)
	g.mu.Unlock()
}

// KnownHosts returns the number of hosts in this agent's cluster view,
// including itself once it has announced.
func (g *Gmond) KnownHosts() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hosts)
}

// PacketsIn returns how many valid neighbor announcements this agent
// has consumed; PacketsBad counts undecodable packets.
func (g *Gmond) PacketsIn() (valid, bad uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.packetsIn, g.packetsBad
}

// Report builds the full-resolution cluster report from local state, as
// of now. Expired metrics and hosts (silent beyond DMAX) are purged as
// a side effect — soft-state garbage collection happens on the reporting
// path, matching gmond's lazy cleanup.
func (g *Gmond) Report(now time.Time) *gxml.Report {
	g.mu.Lock()
	defer g.mu.Unlock()

	c := &gxml.Cluster{
		Name:      g.cfg.Cluster,
		Owner:     g.cfg.Owner,
		URL:       g.cfg.URL,
		LocalTime: now.Unix(),
	}
	for name, h := range g.hosts {
		hostTN := ageSeconds(now, h.reported)
		// Soft-state host deletion: a host silent beyond HostDMAX has
		// departed the cluster and is dropped from the view. The local
		// node itself is never purged.
		if g.cfg.HostDMAX > 0 && hostTN > g.cfg.HostDMAX && name != g.cfg.Host {
			delete(g.hosts, name)
			continue
		}
		xh := &gxml.Host{
			Name:     h.name,
			IP:       h.ip,
			Reported: h.reported.Unix(),
			TN:       hostTN,
			TMAX:     g.cfg.HeartbeatEvery,
			DMAX:     0,
		}
		for mname, me := range h.metrics {
			if mname == metric.HeartbeatName {
				continue // host-level attributes carry liveness
			}
			m := me.m
			m.TN = ageSeconds(now, me.updated)
			if m.Expired() {
				delete(h.metrics, mname)
				continue
			}
			xh.Metrics = append(xh.Metrics, m)
		}
		sortMetrics(xh.Metrics)
		c.Hosts = append(c.Hosts, xh)
		_ = name
	}
	sortHosts(c.Hosts)
	return &gxml.Report{
		Version:  gxml.Version,
		Source:   "gmond",
		Clusters: []*gxml.Cluster{c},
	}
}

// WriteXML serializes the current cluster report to w.
func (g *Gmond) WriteXML(w io.Writer) error {
	return gxml.WriteReport(w, g.Report(g.cfg.Clock.Now()))
}

// Serve accepts connections on l and writes one full cluster report per
// connection, then closes it — the gmond TCP contract gmetad polls.
// Serve returns when the listener is closed.
func (g *Gmond) Serve(l net.Listener) {
	g.mu.Lock()
	if g.closedFlag {
		g.mu.Unlock()
		_ = l.Close()
		return
	}
	g.listeners = append(g.listeners, l)
	g.mu.Unlock()
	g.serveWG.Add(1)
	defer g.serveWG.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.serveWG.Add(1)
		go func(c net.Conn) {
			defer g.serveWG.Done()
			defer c.Close()
			defer g.recoverServePanic()
			_ = g.WriteXML(c)
		}(conn)
	}
}

// Close unsubscribes from the channel and stops all Serve loops.
func (g *Gmond) Close() {
	g.closeOnce.Do(func() {
		close(g.closed)
		if g.unsubscribe != nil {
			g.unsubscribe()
		}
		g.mu.Lock()
		g.closedFlag = true
		ls := g.listeners
		g.listeners = nil
		g.mu.Unlock()
		for _, l := range ls {
			_ = l.Close()
		}
	})
	g.serveWG.Wait()
}

// Run drives the agent against real time until ctx is done: Step once a
// second. Production binaries use Run; tests and experiments call Step
// with a virtual clock.
func (g *Gmond) Run(done <-chan struct{}) {
	t := clock.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-g.closed:
			return
		case now := <-t.C:
			g.Step(now)
		}
	}
}

func ageSeconds(now, then time.Time) uint32 {
	d := now.Sub(then)
	if d < 0 {
		return 0
	}
	s := int64(d / time.Second)
	if s > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(s)
}
