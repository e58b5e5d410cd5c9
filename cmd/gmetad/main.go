// Command gmetad runs a Ganglia wide-area monitor: it polls gmond
// clusters and child gmetads, summarizes and archives their data, and
// serves the monitoring tree over two TCP ports — a full-dump port and
// an interactive query port.
//
// Usage:
//
//	gmetad -grid SDSC -authority http://sdsc.example/ \
//	    -source "meteor|gmond|head-a:8649,head-b:8649" \
//	    -source "attic|gmetad|attic.example:8652" \
//	    [-mode nlevel|onelevel] [-xml :8651] [-query :8652] [-poll 15s]
//
// Each -source flag is "name|kind|addr[,addr...]"; additional addresses
// are failover targets tried in order. The kind "gmetad-stream" names a
// child gmetad consumed over a delta-subscription link instead of the
// polling cadence — the slot falls back to polling whenever the stream
// is down and resubscribes on jittered backoff:
//
//	gmetad ... -source "attic|gmetad-stream|attic.example:8652" \
//	    [-stream-heartbeat 30s] [-stream-idle-timeout 2m]
//
// The metrics-hub fabric opens the closed XML-over-TCP stack at both
// ends. Receivers admit foreign producers into a synthetic cluster this
// daemon polls like any other gmond:
//
//	gmetad ... -statsd-listen :8125 -push-listen :8126 \
//	    [-fabric-cluster fabric] [-fabric-host HOSTNAME]
//
// Sinks re-export every polled numeric metric to foreign consumers:
//
//	gmetad ... -carbon-target carbon.example:2003 [-carbon-prefix ganglia] \
//	    -prom-listen :9090
//
// The source set is read once, at start; changing it means restarting
// with new -source flags, as a stock gmetad re-reads gmetad.conf. Flags
// name only deployment settings (addresses, paths, names), what stock
// gmetad.conf also sets, and the documented non-default regimes
// (-stream-heartbeat, -stream-idle-timeout, -emit-dtd). Timeouts,
// backoff and breaker shapes, connection and download caps, checkpoint
// cadence and retention are fixed at their defaults.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ganglia/internal/fabric"
	"ganglia/internal/gmetad"
	"ganglia/internal/transport"
)

const (
	// checkpointEvery is the archive checkpoint cadence when
	// -archive-path is set.
	checkpointEvery = 5 * time.Minute
	// drainTimeout bounds how long SIGTERM waits for in-flight
	// responses (and queued sink samples) before abandoning them.
	drainTimeout = 10 * time.Second
)

// sourceFlags accumulates repeated -source flags.
type sourceFlags []gmetad.DataSource

func (s *sourceFlags) String() string { return fmt.Sprintf("%d sources", len(*s)) }

func (s *sourceFlags) Set(v string) error {
	parts := strings.Split(v, "|")
	if len(parts) != 3 {
		return fmt.Errorf("want name|kind|addrs, got %q", v)
	}
	var kind gmetad.SourceKind
	subscribe := false
	switch parts[1] {
	case "gmond":
		kind = gmetad.SourceGmond
	case "gmetad":
		kind = gmetad.SourceGmetad
	case "gmetad-stream":
		kind = gmetad.SourceGmetad
		subscribe = true
	default:
		return fmt.Errorf("unknown source kind %q (want gmond, gmetad or gmetad-stream)", parts[1])
	}
	addrs := strings.Split(parts[2], ",")
	*s = append(*s, gmetad.DataSource{Name: parts[0], Kind: kind, Addrs: addrs, Subscribe: subscribe})
	return nil
}

func main() {
	var sources sourceFlags
	var (
		grid        = flag.String("grid", "unspecified", "grid name this gmetad is authoritative for")
		authority   = flag.String("authority", "", "this daemon's URL, propagated upstream")
		modeStr     = flag.String("mode", "nlevel", "monitoring design: nlevel or onelevel")
		xmlAddr     = flag.String("xml", ":8651", "TCP address of the full-dump port (empty to disable)")
		queryAddr   = flag.String("query", ":8652", "TCP address of the interactive query port (empty to disable)")
		poll        = flag.Duration("poll", gmetad.DefaultPollInterval, "source polling interval")
		archive     = flag.Bool("archive", true, "keep round-robin metric histories")
		archivePath = flag.String("archive-path", "", "base path for archive snapshots: generations are written as <path>.gen-<seq>, the newest valid one is restored on start, corrupt ones are quarantined as <path>.corrupt-<seq>")

		streamHeartbeat = flag.Duration("stream-heartbeat", 0, "keepalive cadence on served subscription streams (0 = default)")
		streamIdle      = flag.Duration("stream-idle-timeout", 0, "silence on a subscribed link before it is declared gapped and torn down (0 = default)")
		emitDTD         = flag.Bool("emit-dtd", false, "include the Ganglia DTD in every response, as classic gmetad did")

		statsdAddr    = flag.String("statsd-listen", "", "UDP address of the statsd line-protocol receiver (empty to disable)")
		pushAddr      = flag.String("push-listen", "", "TCP address of the HTTP/JSON push receiver (empty to disable)")
		fabricCluster = flag.String("fabric-cluster", "fabric", "cluster name of the synthetic cluster fabric receivers feed")
		fabricHost    = flag.String("fabric-host", "", "default host fabric metrics are attributed to (default: this machine's hostname)")
		carbonTarget  = flag.String("carbon-target", "", "address of a Graphite/Carbon plaintext relay to stream samples to (empty to disable)")
		carbonPrefix  = flag.String("carbon-prefix", "ganglia", "path prefix for Carbon datapoints")
		promAddr      = flag.String("prom-listen", "", "TCP address of the Prometheus /metrics exposition endpoint (empty to disable)")
	)
	flag.Var(&sources, "source", "data source as name|kind|addr[,addr...] (repeatable)")
	flag.Parse()

	var mode gmetad.Mode
	switch *modeStr {
	case "nlevel":
		mode = gmetad.NLevel
	case "onelevel":
		mode = gmetad.OneLevel
	default:
		log.Fatalf("gmetad: unknown -mode %q", *modeStr)
	}
	tcp := &transport.TCPNetwork{}

	// Receivers: a hub fed by statsd/push traffic, served over loopback
	// and polled as an ordinary gmond source — the fabric's metrics
	// flow through the same parse/summarize/archive/serve pipeline as
	// every native cluster.
	var hub *fabric.Hub
	if *statsdAddr != "" || *pushAddr != "" {
		host := *fabricHost
		if host == "" {
			if h, err := os.Hostname(); err == nil {
				host = h
			} else {
				host = "localhost"
			}
		}
		var err error
		hub, err = fabric.NewHub(fabric.Config{
			Cluster: *fabricCluster,
			Owner:   *grid,
			Host:    host,
		})
		if err != nil {
			log.Fatalf("gmetad: fabric hub: %v", err)
		}
		defer hub.Close()
		hl, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatalf("gmetad: fabric hub listen: %v", err)
		}
		go hub.Serve(hl)
		sources = append(sources, gmetad.DataSource{
			Name: *fabricCluster, Kind: gmetad.SourceGmond,
			Addrs: []string{hl.Addr().String()},
		})
		if *statsdAddr != "" {
			pc, err := net.ListenPacket("udp", *statsdAddr)
			if err != nil {
				log.Fatalf("gmetad: statsd listen %s: %v", *statsdAddr, err)
			}
			hub.ListenStatsd(pc)
			fmt.Printf("gmetad: statsd on %s\n", pc.LocalAddr())
		}
		if *pushAddr != "" {
			pl, err := tcp.Listen(*pushAddr)
			if err != nil {
				log.Fatalf("gmetad: push listen %s: %v", *pushAddr, err)
			}
			go func() {
				if err := hub.ServePush(pl); err != nil && !errors.Is(err, net.ErrClosed) {
					log.Printf("gmetad: push server: %v", err)
				}
			}()
			fmt.Printf("gmetad: push on %s\n", pl.Addr())
		}
	}
	if len(sources) == 0 {
		log.Fatal("gmetad: at least one -source is required")
	}

	// Sinks: re-export every polled numeric metric, each consumer
	// behind its own bounded drop-oldest queue.
	var sinks *fabric.SinkManager
	if *carbonTarget != "" || *promAddr != "" {
		sinks = fabric.NewSinkManager(fabric.SinkConfig{})
		if *carbonTarget != "" {
			sinks.Add(fabric.NewCarbonSink(tcp, *carbonTarget, *carbonPrefix, 0))
			fmt.Printf("gmetad: carbon sink -> %s\n", *carbonTarget)
		}
		if *promAddr != "" {
			prom := &fabric.PromSink{}
			sinks.Add(prom)
			pl, err := tcp.Listen(*promAddr)
			if err != nil {
				log.Fatalf("gmetad: prometheus listen %s: %v", *promAddr, err)
			}
			go func() {
				if err := prom.ServeMetrics(pl); err != nil && !errors.Is(err, net.ErrClosed) {
					log.Printf("gmetad: prometheus server: %v", err)
				}
			}()
			fmt.Printf("gmetad: prometheus metrics on %s\n", pl.Addr())
		}
	}

	cfg := gmetad.Config{
		GridName:     *grid,
		Authority:    *authority,
		Network:      tcp,
		Sources:      sources,
		Mode:         mode,
		PollInterval: *poll,
		Archive:      *archive,
		ArchivePath:  *archivePath,

		CheckpointInterval: checkpointEvery,

		StreamHeartbeat:   *streamHeartbeat,
		StreamIdleTimeout: *streamIdle,
		EmitDTD:           *emitDTD,

		Logger: log.Default(),
	}
	if sinks != nil {
		cfg.FabricSink = sinks
	}
	g, err := gmetad.New(cfg)
	if err != nil {
		log.Fatalf("gmetad: %v", err)
	}
	defer g.Close()

	if *xmlAddr != "" {
		l, err := tcp.Listen(*xmlAddr)
		if err != nil {
			log.Fatalf("gmetad: listen %s: %v", *xmlAddr, err)
		}
		go g.ServeXML(l)
		fmt.Printf("gmetad: full XML on %s\n", l.Addr())
	}
	if *queryAddr != "" {
		l, err := tcp.Listen(*queryAddr)
		if err != nil {
			log.Fatalf("gmetad: listen %s: %v", *queryAddr, err)
		}
		go g.ServeQuery(l)
		fmt.Printf("gmetad: queries on %s\n", l.Addr())
	}
	fmt.Printf("gmetad: grid %q (%s design), %d sources, polling every %v\n",
		*grid, mode, len(sources), *poll)

	done := make(chan struct{})
	go g.Run(done)
	if hub != nil {
		go hub.Run(done)
	}

	status := time.NewTicker(time.Minute)
	defer status.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-status.C:
			snap := g.Accounting().Snapshot()
			fmt.Printf("gmetad: %d queries served (%d cache hits, %d misses, %d bytes evicted), %d connections rejected\n",
				snap.Queries, snap.CacheHits, snap.CacheMisses, snap.CacheEvictedBytes, snap.RejectedConns)
			fmt.Printf("gmetad: %d fragment renders, render time %v of %v total work\n",
				snap.FragmentRenders, snap.Render, snap.Work())
			if hosts := snap.HostsParsed + snap.HostsReused; hosts > 0 {
				fmt.Printf("gmetad: %d HOST elements ingested, %d parsed, %d reused unchanged (%.1f%%)\n",
					hosts, snap.HostsParsed, snap.HostsReused, 100*float64(snap.HostsReused)/float64(hosts))
			}
			if snap.PollFails > 0 {
				fmt.Printf("gmetad: %d poll failures, %d failovers, %d backoffs, %d breaker trips, %d oversize reports\n",
					snap.PollFails, snap.Failovers, snap.Backoffs, snap.BreakerTrips, snap.OversizeReports)
			}
			if snap.StreamFrames+snap.StreamGaps+snap.StreamResyncs+snap.StreamFallbacks > 0 {
				fmt.Printf("gmetad: %d stream frames applied, %d gaps detected, %d resyncs, %d poll fallbacks\n",
					snap.StreamFrames, snap.StreamGaps, snap.StreamResyncs, snap.StreamFallbacks)
			}
			if snap.HistoryQueries+snap.TopKQueries > 0 {
				fmt.Printf("gmetad: %d history queries (%d topk) served %d points; archive shards: %d contended acquisitions, %v waited\n",
					snap.HistoryQueries, snap.TopKQueries, snap.HistoryPoints,
					snap.ArchiveShardContended, snap.ArchiveShardWait)
			}
			if snap.Checkpoints+snap.CheckpointFails+snap.QuarantinedSnapshots > 0 {
				fmt.Printf("gmetad: %d checkpoints (%d failed), %d generations recovered, %d snapshots quarantined\n",
					snap.Checkpoints, snap.CheckpointFails, snap.RecoveredGenerations, snap.QuarantinedSnapshots)
			}
			for _, st := range g.Status() {
				state := "ok"
				if st.ActiveAddr != "" {
					state = "ok via " + st.ActiveAddr
				}
				if st.Streaming {
					state = fmt.Sprintf("streaming at generation %d", st.StreamGen)
					if st.ActiveAddr != "" {
						state += " via " + st.ActiveAddr
					}
				}
				if st.Failed {
					state = "FAILED since " + st.DownSince.Format(time.RFC3339)
					if !st.NextPollAt.IsZero() {
						state += " (breaker open, next poll " + st.NextPollAt.Format(time.RFC3339) + ")"
					}
					if st.LastError != "" {
						state += " (" + st.LastError + ")"
					}
				}
				fmt.Printf("gmetad: source %-20s %s\n", st.Name, state)
			}
			if hub != nil {
				fs := hub.Accounting().Snapshot()
				fmt.Printf("gmetad: fabric ingest: %d statsd lines (%d parse errors), %d push metrics (%d rejects), %d announcements\n",
					fs.ReceivedLines, fs.ParseErrors, fs.PushMetrics, fs.PushRejects, fs.Announcements)
			}
			if sinks != nil {
				ss := sinks.Accounting().Snapshot()
				fmt.Printf("gmetad: fabric egress: %d offered, %d flushes (%d failed), %d dropped, queue high water %d\n",
					ss.Offered, ss.SinkFlushes, ss.SinkFlushFails, ss.SinkDrops, ss.QueueHighWater)
			}
		case <-sig:
			// Graceful drain: stop polling, stop accepting, let
			// in-flight responses finish (bounded), then take a final
			// checkpoint so no history newer than the last periodic
			// save is lost.
			close(done)
			fmt.Println("gmetad: draining")
			if !g.Drain(drainTimeout) {
				fmt.Printf("gmetad: drain timed out after %v; abandoning stragglers\n", drainTimeout)
			}
			if sinks != nil && !sinks.Drain(drainTimeout) {
				fmt.Printf("gmetad: sink drain timed out after %v; dropping queued samples\n", drainTimeout)
			}
			if *archive && *archivePath != "" {
				if err := g.Checkpoint(); err != nil {
					fmt.Printf("gmetad: final checkpoint failed: %v\n", err)
				}
			}
			fmt.Println("gmetad: shutting down")
			return
		}
	}
}
