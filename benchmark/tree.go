package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/fabric"
	"ganglia/internal/gmetad"
	"ganglia/internal/gxml"
	"ganglia/internal/pseudo"
	"ganglia/internal/summary"
	"ganglia/internal/transport"
	"ganglia/internal/tree"
)

// pollInterval is how far the virtual clock moves per round: the
// paper's 15-second polling cadence.
const pollInterval = 15 * time.Second

// probeCluster, probeHost and probeMetric name the one-host fabric
// cluster the freshness probe enters the tree through.
const (
	probeCluster = "probe"
	probeHost    = "probe-0"
	probeMetric  = "bench_probe"
)

// virtualEpoch is where seed 0's virtual clock starts; other seeds
// start a whole number of polling rounds later, which shifts every
// emulator's value stream.
var virtualEpoch = time.Unix(1_057_000_000, 0)

// emulator is what the tree needs from a cluster emulator; both
// pseudo.Gmond and pseudo.ChurnGmond provide it.
type emulator interface {
	Cluster() string
	Report(now time.Time) *gxml.Report
	Serve(l net.Listener)
	Close()
}

// tier places a gmetad in the tree for the per-tier poll spans.
type tier int

const (
	tierLeaf tier = iota
	tierMid
	tierRoot
)

func (t tier) String() string { return [...]string{"leaf", "mid", "root"}[t] }

// daemon is one live gmetad and where to reach it.
type daemon struct {
	name string
	tier tier
	g    *gmetad.Gmetad
	addr string
	// clusters are the local cluster names, in declaration order, with
	// their sizes; children are the child daemons it polls or subscribes
	// to.
	clusters []tree.ClusterSpec
	children []*daemon
	sources  []gmetad.DataSource
	// streamed marks links this daemon holds as subscriptions.
	streamed bool
}

// liveTree is a monitoring tree running in this process on loopback TCP
// under a virtual clock.
type liveTree struct {
	spec     *workloadSpec
	clk      *clock.Virtual
	counters *netCounters
	// order is leaf-first, so one pass moves fresh leaf data to the root.
	order     []*daemon
	root      *daemon
	probeLeaf *daemon
	emus      []emulator
	hub       *fabric.Hub
	// viewNet is the network viewers dial through (edgeView).
	viewNet *countingNet
	hosts   int // emulated hosts, the probe host not included
	// histEnd is the virtual time warm-up ended at; history views ask
	// for the window of historyWindowRounds rounds before it, which no
	// later round can change.
	histEnd time.Time
	// pollFailsSeen is the tree-wide PollFails total after the last
	// round.
	pollFailsSeen int64
}

// sparseTopology is the two-tier tree of the sparse workloads: a root
// over two child gmetads with three clusters each.
func sparseTopology(hostsPerCluster int) *tree.Topology {
	mk := func(prefix string) []tree.ClusterSpec {
		var cs []tree.ClusterSpec
		for _, s := range []string{"a", "b", "c"} {
			cs = append(cs, tree.ClusterSpec{Name: prefix + "-" + s, Hosts: hostsPerCluster})
		}
		return cs
	}
	return &tree.Topology{
		Root: "root",
		Nodes: []tree.Node{
			{Name: "root", Children: []string{"east", "west"}},
			{Name: "east", Clusters: mk("rack")},
			{Name: "west", Clusters: mk("blade")},
		},
	}
}

// buildTree stands the workload's tree up: emulators and the probe hub
// listening, every gmetad constructed and serving its query port. No
// round has run yet.
func buildTree(spec *workloadSpec, seed int64) (_ *liveTree, err error) {
	topo := spec.topology()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	tcp := &transport.TCPNetwork{}
	start := virtualEpoch.Add(time.Duration(seed%100_000) * pollInterval)
	lt := &liveTree{
		spec:     spec,
		clk:      clock.NewVirtual(start),
		counters: &netCounters{},
		hosts:    topo.HostCount(),
	}
	lt.viewNet = &countingNet{inner: tcp, counters: lt.counters, fallback: edgeView}
	defer func() {
		if err != nil {
			lt.close()
		}
	}()

	nodes := make(map[string]*tree.Node, len(topo.Nodes))
	for i := range topo.Nodes {
		nodes[topo.Nodes[i].Name] = &topo.Nodes[i]
	}
	byName := make(map[string]*daemon, len(topo.Nodes))
	leafFirst := topo.LeafFirst()
	emuSeed := seed * 1000
	for i, name := range leafFirst {
		node := nodes[name]
		d := &daemon{name: name, clusters: node.Clusters}
		switch {
		case name == topo.Root:
			d.tier = tierRoot
		case len(node.Children) > 0:
			d.tier = tierMid
		}
		classOf := make(map[string]edgeClass)
		var sources []gmetad.DataSource
		for _, cs := range node.Clusters {
			emuSeed++
			var emu emulator
			if spec.Churn > 0 {
				emu = pseudo.NewChurn(cs.Name, cs.Hosts, spec.Churn, pollInterval, lt.clk)
			} else {
				emu = pseudo.New(cs.Name, cs.Hosts, emuSeed, lt.clk)
			}
			lt.emus = append(lt.emus, emu)
			l, err := tcp.Listen("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("listen for cluster %s: %w", cs.Name, err)
			}
			go emu.Serve(l)
			addr := l.Addr().String()
			classOf[addr] = edgeLAN
			sources = append(sources, gmetad.DataSource{Name: cs.Name, Kind: gmetad.SourceGmond, Addrs: []string{addr}})
		}
		if i == 0 {
			// The first node of a leaf-first walk is the deepest leaf:
			// the probe's one-host cluster hangs under it.
			hub, err := fabric.NewHub(fabric.Config{
				Cluster: probeCluster, Owner: "benchmark", Host: probeHost, IP: "10.255.0.1", Clock: lt.clk,
			})
			if err != nil {
				return nil, err
			}
			lt.hub = hub
			// Prime the probe host so it is part of the tree from the
			// first round; the probe sequence then counts up from 1.
			hub.IngestStatsd([]byte(probeMetric + ":0|g"))
			hub.Flush(start)
			l, err := tcp.Listen("127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("listen for probe hub: %w", err)
			}
			go hub.Serve(l)
			addr := l.Addr().String()
			classOf[addr] = edgeLAN
			sources = append(sources, gmetad.DataSource{Name: probeCluster, Kind: gmetad.SourceGmond, Addrs: []string{addr}})
			lt.probeLeaf = d
		}
		for _, childName := range node.Children {
			child := byName[childName]
			d.children = append(d.children, child)
			classOf[child.addr] = edgeWAN
			subscribe := spec.Subscribe && d.tier == tierRoot
			d.streamed = d.streamed || subscribe
			sources = append(sources, gmetad.DataSource{
				Name: childName, Kind: gmetad.SourceGmetad, Addrs: []string{child.addr}, Subscribe: subscribe,
			})
		}
		cfg := gmetad.Config{
			GridName:  name,
			Authority: tree.Authority(name),
			Network:   &countingNet{inner: tcp, counters: lt.counters, classOf: classOf},
			Clock:     lt.clk,
			Sources:   sources,
			Mode:      spec.Mode,
			Archive:   spec.Archive,
			// Heartbeat frames ride a wall-clock ticker; an hour keeps
			// them out of a run, so frame and byte counts repeat exactly.
			StreamHeartbeat: time.Hour,
		}
		if spec.ArchiveRows > 0 {
			cfg.ArchiveSpec = smokeArchive(spec.ArchiveRows)
		}
		g, err := gmetad.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("gmetad %s: %w", name, err)
		}
		d.g, d.sources = g, sources
		l, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("listen for gmetad %s: %w", name, err)
		}
		d.addr = l.Addr().String()
		go g.ServeQuery(l)
		lt.order = append(lt.order, d)
		byName[name] = d
	}
	lt.root = byName[topo.Root]
	return lt, nil
}

// close stops every daemon, emulator and the hub, and waits for their
// goroutines.
func (lt *liveTree) close() {
	for _, d := range lt.order {
		d.g.Close()
	}
	for _, e := range lt.emus {
		e.Close()
	}
	if lt.hub != nil {
		lt.hub.Close()
	}
}

// roundResult is what one round did.
type roundResult struct {
	// pollFails counts source polls that failed during the round.
	pollFails int64
	// synced is false when a subscription link was not streaming, or did
	// not catch up with its child in time.
	synced bool
}

// streamSyncTimeout bounds how long a round waits for subscription
// links to catch up with their children.
const streamSyncTimeout = 2 * time.Second

// pollRound polls the tree leaf-first at virtual time now. Before a
// parent with subscription links polls, the round waits until each link
// has applied its child's latest epoch, so "round done" means the same
// on both link types: the root has published this round's data. tr and
// parent record the per-tier spans (tr may be nil).
func (lt *liveTree) pollRound(now time.Time, tr *tracer, op int64, parent int) roundResult {
	res := roundResult{synced: true}
	for _, d := range lt.order {
		if d.streamed {
			s := tr.begin("stream.sync_wait", op, parent)
			res.synced = lt.waitSynced(d, streamSyncTimeout) && res.synced
			tr.end(s)
		}
		s := tr.begin("gmetad.poll_"+d.tier.String(), op, parent)
		d.g.PollOnce(now)
		tr.end(s)
	}
	var fails int64
	for _, d := range lt.order {
		fails += d.g.Accounting().Snapshot().PollFails
	}
	res.pollFails = fails - lt.pollFailsSeen
	lt.pollFailsSeen = fails
	return res
}

// linkStates reports whether every subscription link of d is streaming,
// and whether each streaming link has applied its child's current
// epoch.
func (lt *liveTree) linkStates(d *daemon) (streaming, caughtUp bool) {
	streaming, caughtUp = true, true
	status := d.g.Status()
	for _, child := range d.children {
		for _, st := range status {
			if st.Name != child.name {
				continue
			}
			if !st.Streaming {
				streaming = false
			} else if st.StreamGen != child.g.Epoch() {
				caughtUp = false
			}
		}
	}
	return streaming, caughtUp
}

// allSynced reports whether every subscription link in the tree is
// streaming and caught up.
func (lt *liveTree) allSynced() bool {
	for _, d := range lt.order {
		if d.streamed {
			if streaming, caughtUp := lt.linkStates(d); !streaming || !caughtUp {
				return false
			}
		}
	}
	return true
}

// waitStreaming waits, looking every 200 µs, until every subscription
// link in the tree is streaming and caught up, or timeout passes. Trees
// without subscriptions return at once.
func (lt *liveTree) waitStreaming(timeout time.Duration) {
	deadline := wallNow().Add(timeout)
	for !lt.allSynced() && wallNow().Before(deadline) {
		clock.Sleep(200 * time.Microsecond)
	}
}

// waitSynced waits, looking every 200 µs, until each streaming link of
// d has caught up or timeout passes. It sleeps on a runtime timer, which
// is exact while the subscriber keeps the process busy and up to a
// millisecond late once it goes idle; a kernel sleep this frequent costs
// the subscriber a thread hand-off per look and slows the very thing
// being waited for. A link that is not streaming is
// not waited for — the poll path covers it — but makes the result false.
func (lt *liveTree) waitSynced(d *daemon, timeout time.Duration) bool {
	deadline := wallNow().Add(timeout)
	for {
		streaming, caughtUp := lt.linkStates(d)
		if caughtUp {
			return streaming
		}
		if wallNow().After(deadline) {
			return false
		}
		clock.Sleep(200 * time.Microsecond)
	}
}

// groundTruth folds what the emulators and the probe hub report at now
// into one summary, through the same XML text the wire carries (values
// travel as two-decimal text, so the fold must see them rounded too).
func (lt *liveTree) groundTruth(now time.Time) (*summary.Summary, error) {
	total := summary.New()
	add := func(xml []byte) error {
		rep, err := gxml.Parse(bytes.NewReader(xml))
		if err != nil {
			return err
		}
		for _, c := range rep.Clusters {
			total.Merge(c.Summarize())
		}
		return nil
	}
	for _, e := range lt.emus {
		xml, err := gxml.RenderReport(e.Report(now))
		if err != nil {
			return nil, err
		}
		if err := add(xml); err != nil {
			return nil, fmt.Errorf("ground truth of %s: %w", e.Cluster(), err)
		}
	}
	var buf bytes.Buffer
	if err := lt.hub.WriteXML(&buf); err != nil {
		return nil, err
	}
	if err := add(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("ground truth of probe hub: %w", err)
	}
	return total, nil
}
