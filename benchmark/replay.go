package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ganglia/internal/fabric"
	"ganglia/internal/gmetad"
	"ganglia/internal/gmond"
	"ganglia/internal/gxml"
	"ganglia/internal/metric"
	"ganglia/internal/query"
	"ganglia/internal/rrd"
	"ganglia/internal/stream"
	"ganglia/internal/summary"
	"ganglia/internal/transport"
	"ganglia/internal/xdr"
)

// The replay stage feeds inputs taken from the workload's own live tree
// — cluster XML, delta frames, query lines, statsd lines, the archive
// pool — through each layer's public entry points, one layer at a time,
// with nothing else running. It gives every layer a standing number on
// the inputs this workload actually produces.

// perCall runs f back to back, in growing batches, until one batch has
// lasted budget, and returns the mean time of one call in that batch.
func perCall(budget time.Duration, f func()) time.Duration {
	for n := 1; ; {
		start := wallNow()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := wallNow().Sub(start)
		if elapsed >= budget || n >= 1<<26 {
			return elapsed / time.Duration(n)
		}
		if elapsed < budget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
}

// mallocsPerCall is the mean number of heap allocations one call of f
// makes, over n calls. Nothing else may be allocating meanwhile.
func mallocsPerCall(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// countWriter counts bytes without keeping them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// replayer holds what the stage needs.
type replayer struct {
	s      *session
	m      *metricSet
	budget time.Duration
	outDir string
}

// replay runs every isolated-layer measurement. Failures are counted
// like any other failed operation.
func (s *session) replay(m *metricSet, budget time.Duration, outDir string) {
	r := &replayer{s: s, m: m, budget: budget, outDir: outDir}
	r.pseudo()
	r.ingress()
	clusters := r.gxml()
	r.summary(clusters)
	r.rrd(clusters)
	r.checkpoint()
	r.answers()
	r.queryParse()
	r.stream()
}

func (r *replayer) fail(format string, args ...any) {
	r.s.fails.attempt()
	r.s.fails.fail("replay: "+format, args...)
}

// pseudo measures the generator itself, one round's worth of cluster
// reports, so its cost is never mistaken for gmetad's.
func (r *replayer) pseudo() {
	lt := r.s.lt
	now := lt.clk.Now()
	var bytes int64
	d := perCall(r.budget, func() {
		bytes = 0
		for _, e := range lt.emus {
			var cw countWriter
			_ = gxml.WriteReport(&cw, e.Report(now)) // countWriter cannot fail
			bytes += cw.n
		}
	})
	r.m.set("pseudo.report_ms", ms(d), len(lt.emus))
	r.m.set("pseudo.report_bytes", float64(bytes), len(lt.emus))
}

// ingress measures the probe's first hop: statsd parse, hub ingest and
// flush, XDR and announcement decode, gmond soft-state ingest, and the
// hub cluster's XML report.
func (r *replayer) ingress() {
	lt := r.s.lt
	line := fmt.Appendf(nil, "%s:%d|g", probeMetric, r.s.probeSeq)
	d := perCall(r.budget, func() { _, _ = fabric.ParseStatsd(line) })
	r.m.set("fabric.statsd_parse_ns_per_line", float64(d), 1)

	hub, err := fabric.NewHub(fabric.Config{Cluster: "replay", Host: probeHost, Clock: lt.clk})
	if err != nil {
		r.fail("hub: %v", err)
		return
	}
	defer hub.Close()
	ingest := perCall(r.budget, func() { hub.IngestStatsd(line) })
	r.m.set("fabric.ingest_ns_per_line", float64(ingest), 1)
	now := lt.clk.Now()
	both := perCall(r.budget, func() { hub.IngestStatsd(line); hub.Flush(now) })
	r.m.set("fabric.flush_ms", ms(both-ingest), 1)

	ann := metric.Announcement{Host: probeHost, IP: "10.255.0.1", Metric: metric.Metric{
		Name: probeMetric, Val: metric.NewDouble(float64(r.s.probeSeq)), Slope: metric.SlopeBoth,
		TMAX: fabric.DefaultMetricTMAX, Source: "statsd",
	}}
	pkt := ann.Encode()
	d = perCall(r.budget, func() { decodeAnnouncementXDR(pkt) })
	r.m.set("xdr.decode_ns", float64(d), 1)
	d = perCall(r.budget, func() { _, _ = metric.DecodeAnnouncement(pkt) })
	r.m.set("metric.announce_decode_ns", float64(d), 1)

	bus := transport.NewInMemBus()
	agent, err := gmond.New(gmond.Config{Cluster: "replay", Host: "listener", Bus: bus, Clock: lt.clk, Mute: true})
	if err != nil {
		r.fail("gmond: %v", err)
		return
	}
	defer agent.Close()
	d = perCall(r.budget, func() { _ = bus.Send(pkt) })
	r.m.set("gmond.ingest_ns_per_pkt", float64(d), 1)
	if valid, _ := agent.PacketsIn(); valid == 0 {
		r.fail("the mute gmond agent heard no packet")
	}

	d = perCall(r.budget, func() { _ = lt.hub.WriteXML(io.Discard) })
	r.m.set("gmond.report_ms", ms(d), 1)
}

// decodeAnnouncementXDR walks an announcement's field sequence with the
// bare XDR decoder: the XDR layer's share of announcement decoding.
func decodeAnnouncementXDR(pkt []byte) {
	d := xdr.NewDecoder(pkt)
	_, _ = d.Uint32() // magic
	_, _ = d.Uint32() // version
	_, _ = d.String() // host
	_, _ = d.String() // ip
	_, _ = d.String() // name
	_, _ = d.Uint32() // type
	_, _ = d.String() // value
	_, _ = d.String() // units
	_, _ = d.Uint32() // slope
	_, _ = d.Uint32() // tmax
	_, _ = d.Uint32() // dmax
	_, _ = d.String() // source
}

// gxml measures the XML layer on one round's worth of cluster reports
// and returns the parsed clusters for the layers downstream.
func (r *replayer) gxml() []*gxml.Cluster {
	lt := r.s.lt
	now := lt.clk.Now()
	var docs [][]byte
	var total int64
	for _, e := range lt.emus {
		xml, err := gxml.RenderReport(e.Report(now))
		if err != nil {
			r.fail("render %s: %v", e.Cluster(), err)
			return nil
		}
		docs = append(docs, xml)
		total += int64(len(xml))
	}
	// Callbacks that do nothing still make the parser decode every host
	// and metric attribute, as gmetad's collector does.
	sink := &gxml.Handler{StartHost: func(gxml.Host) {}, Metric: func(metric.Metric) {}}
	parseAll := func() {
		for _, xml := range docs {
			if err := gxml.ParseStream(bytes.NewReader(xml), sink); err != nil {
				panic(err) // the benchmark's own rendering cannot be malformed
			}
		}
	}
	d := perCall(r.budget, parseAll)
	r.m.set("gxml.parse_mb_per_s", mbPerSec(total, d), len(docs))
	r.m.set("gxml.parse_allocs_per_host", mallocsPerCall(3, parseAll)/float64(lt.hosts), 3)

	var reports []*gxml.Report
	var clusters []*gxml.Cluster
	d = perCall(r.budget, func() {
		reports, clusters = reports[:0], clusters[:0]
		for _, xml := range docs {
			rep, err := gxml.Parse(bytes.NewReader(xml))
			if err != nil {
				panic(err)
			}
			reports = append(reports, rep)
			clusters = append(clusters, rep.Clusters...)
		}
	})
	r.m.set("gxml.parse_tree_mb_per_s", mbPerSec(total, d), len(docs))
	d = perCall(r.budget, func() {
		for _, rep := range reports {
			_ = gxml.WriteReport(io.Discard, rep)
		}
	})
	r.m.set("gxml.write_mb_per_s", mbPerSec(total, d), len(docs))
	return clusters
}

// summary measures the additive reductions: one cluster's fold, a merge
// of two summaries, and an incremental tracker publish.
func (r *replayer) summary(clusters []*gxml.Cluster) {
	if len(clusters) == 0 {
		return
	}
	n := time.Duration(len(clusters))
	d := perCall(r.budget, func() {
		for _, c := range clusters {
			_ = c.Summarize()
		}
	})
	r.m.set("summary.summarize_us_per_cluster", us(d/n), len(clusters))

	// Two generations of every summary, so a publish always replaces a
	// different value (republishing the same pointer is a shortcut).
	var gens [2][]*summary.Summary
	for _, c := range clusters {
		s := c.Summarize()
		gens[0] = append(gens[0], s)
		gens[1] = append(gens[1], s.Clone())
	}
	d = perCall(r.budget, func() {
		total := summary.New()
		for _, s := range gens[0] {
			total.Merge(s)
		}
	})
	r.m.set("summary.merge_us", us(d/n), len(clusters))

	tracker := summary.NewTracker()
	gen := uint64(0)
	d = perCall(r.budget, func() {
		gen++
		for i, c := range clusters {
			tracker.Publish(c.Name, gen, gens[gen%2][i])
		}
	})
	r.m.set("summary.tracker_publish_us", us(d/n), len(clusters))
}

// archiveSpec is the archive layout the workload's gmetads use.
func (w *workloadSpec) archiveSpec() rrd.Spec {
	if w.ArchiveRows > 0 {
		return smokeArchive(w.ArchiveRows)
	}
	return rrd.DefaultSpec()
}

// rrd measures the archive layer: updates into a fresh pool fed one
// cluster's samples per step, and range fetch, snapshot write and
// snapshot read on the deepest leaf's live pool.
func (r *replayer) rrd(clusters []*gxml.Cluster) {
	if len(clusters) == 0 {
		return
	}
	lt := r.s.lt
	c := clusters[0]
	type sample struct {
		host, metric string
		v            float64
	}
	var samples []sample
	for _, h := range c.Hosts {
		for _, m := range h.Metrics {
			if v, ok := m.Val.Float64(); ok {
				samples = append(samples, sample{h.Name, m.Name, v})
			}
		}
	}
	pool := rrd.NewPool(lt.spec.archiveSpec())
	at := lt.clk.Now()
	d := perCall(r.budget, func() {
		at = at.Add(pollInterval)
		for _, s := range samples {
			_ = pool.UpdateSeries(c.Name, s.host, s.metric, at, s.v) // a step never repeats, so no update is refused
		}
	})
	r.m.set("rrd.update_ns_per_sample", float64(d)/float64(len(samples)), len(samples))

	leaf := lt.order[0]
	live := leaf.g.Pool()
	cluster, host, name := leaf.clusters[0].Name, hostName(leaf.clusters[0].Name, 0), lt.spec.valueMetric()
	start, end := lt.histEnd.Add(-historyWindowRounds*pollInterval), lt.histEnd
	var points int
	d = perCall(r.budget, func() {
		points = len(live.FetchRangeSeries(cluster, host, name, rrd.Average, start, end, historyStep*time.Second))
	})
	if points == 0 {
		r.fail("range fetch of %s/%s/%s returned no points", cluster, host, name)
	}
	r.m.set("rrd.fetch_range_us", us(d), points)

	var buf bytes.Buffer
	d = perCall(r.budget, func() {
		buf.Reset()
		if err := live.WriteSnapshot(&buf); err != nil {
			panic(err) // a bytes.Buffer cannot fail
		}
	})
	r.m.set("rrd.snapshot_write_ms", ms(d), live.Len())
	r.m.set("rrd.snapshot_bytes_per_series", float64(buf.Len())/float64(live.Len()), live.Len())
	data := buf.Bytes()
	var restored *rrd.Pool
	d = perCall(r.budget, func() {
		var err error
		if restored, err = rrd.ReadSnapshot(bytes.NewReader(data)); err != nil {
			panic(err) // the bytes were written a moment ago
		}
	})
	if restored.Len() != live.Len() {
		r.fail("snapshot restored %d series of %d", restored.Len(), live.Len())
	}
	r.m.set("rrd.snapshot_read_ms", ms(d), live.Len())
}

// checkpoint measures a durable checkpoint and the recovery that reads
// it back, on a replay-owned gmetad polling the deepest leaf's sources
// with its archives under the benchmark's out directory.
func (r *replayer) checkpoint() {
	lt := r.s.lt
	leaf := lt.order[0]
	dir := filepath.Join(r.outDir, "checkpoint-"+lt.spec.Name)
	if err := os.RemoveAll(dir); err != nil {
		r.fail("%v", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.fail("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := gmetad.Config{
		GridName: "replay", Network: &transport.TCPNetwork{}, Clock: lt.clk, Sources: leaf.sources,
		Mode: lt.spec.Mode, Archive: true, ArchiveSpec: lt.spec.archiveSpec(),
		ArchivePath: filepath.Join(dir, "archive"),
	}
	g, err := gmetad.New(cfg)
	if err != nil {
		r.fail("checkpoint gmetad: %v", err)
		return
	}
	g.PollOnce(lt.clk.Now())
	series := g.Pool().Len()
	start := wallNow()
	err = g.Checkpoint()
	took := wallNow().Sub(start)
	g.Close()
	if err != nil || series == 0 {
		r.fail("checkpoint of %d series: %v", series, err)
		return
	}
	r.m.set("gmetad.checkpoint_ms", ms(took), series)

	start = wallNow()
	g, err = gmetad.New(cfg)
	took = wallNow().Sub(start)
	if err != nil {
		r.fail("recovery: %v", err)
		return
	}
	defer g.Close()
	if got := g.Pool().Len(); got != series {
		r.fail("recovery restored %d series of %d", got, series)
	}
	r.m.set("gmetad.recover_ms", ms(took), series)
}

// answerEpochs is how many poll epochs the serve-side measurement
// spans: each epoch gives one cache miss per query kind.
const answerEpochs = 8

// answers measures the serve path without the socket: one WriteAnswer
// per query kind right after a poll (a response-cache miss; history is
// never cached), then the depth-0 dump again (a hit).
func (r *replayer) answers() {
	lt := r.s.lt
	leaf := lt.order[0]
	cluster := leaf.clusters[0]
	kinds := []struct {
		metric string
		kind   viewKind
	}{
		{"gmetad.answer_summary_us", viewMeta},
		{"gmetad.answer_host_us", viewHost},
		{"gmetad.answer_cluster_us", viewCluster},
		{"gmetad.answer_regex_us", viewRegex},
		{"gmetad.answer_history_us", viewHistory},
		{"gmetad.answer_depth0_miss_us", viewDump},
	}
	queries := make([]*query.Query, len(kinds))
	for i, k := range kinds {
		q, err := query.Parse(lt.queryFor(k.kind, cluster, 0))
		if err != nil {
			r.fail("query for %s: %v", k.kind, err)
			return
		}
		queries[i] = q
	}
	dump := queries[len(queries)-1]
	answer := func(q *query.Query) time.Duration {
		start := wallNow()
		if err := leaf.g.WriteAnswer(io.Discard, q); err != nil {
			r.fail("answer: %v", err)
		}
		return wallNow().Sub(start)
	}
	miss := make([]time.Duration, len(kinds))
	var hit time.Duration
	var missAllocs float64
	for e := 0; e < answerEpochs; e++ {
		leaf.g.PollOnce(lt.clk.Now()) // a fresh epoch: every cached answer is stale
		// Let subscribers finish applying the bump before timing.
		lt.waitSynced(lt.root, streamSyncTimeout)
		for i, q := range queries[:len(queries)-1] {
			miss[i] += answer(q)
		}
		missAllocs += mallocsPerCall(1, func() { miss[len(miss)-1] += answer(dump) })
		hit += answer(dump)
	}
	for i, k := range kinds {
		r.m.set(k.metric, us(miss[i]/answerEpochs), answerEpochs)
	}
	r.m.set("gmetad.answer_depth0_hit_us", us(hit/answerEpochs), answerEpochs)
	r.m.set("gmetad.answer_depth0_allocs", missAllocs/answerEpochs, answerEpochs)
}

// queryParse measures the query language on the workload's own query
// lines.
func (r *replayer) queryParse() {
	plans := r.s.planner.planViews(256)
	d := perCall(r.budget, func() {
		for i := range plans {
			if _, err := query.Parse(plans[i].query); err != nil {
				panic(err) // every planned query was answered during the run
			}
		}
	})
	r.m.set("query.parse_ns", float64(d)/float64(len(plans)), len(plans))
}

// streamCaptureRounds is how many rounds of delta frames the stream
// measurements replay.
const streamCaptureRounds = 3

// stream measures the delta protocol on frames captured from a
// subscription of the benchmark's own to the root's first child. Trees
// without subscription links report zero for the whole layer.
func (r *replayer) stream() {
	names := []string{"stream.decode_delta_us", "stream.ledger_apply_us", "stream.assemble_us", "stream.frame_read_mb_per_s"}
	if !r.s.lt.spec.Subscribe {
		for _, n := range names {
			r.m.set(n, 0, 0)
		}
		return
	}
	frames, err := r.captureFrames()
	if err != nil {
		r.fail("capture frames: %v", err)
		return
	}
	var raw []byte
	deltas := make([]*stream.Delta, len(frames))
	for i, f := range frames {
		raw = stream.AppendFrame(raw, f)
		if deltas[i], err = stream.DecodeDelta(f.Payload); err != nil {
			r.fail("decode captured frame %d: %v", i, err)
			return
		}
	}
	nDeltas := time.Duration(len(frames) - 1)

	d := perCall(r.budget, func() {
		for _, f := range frames[1:] {
			_, _ = stream.DecodeDelta(f.Payload)
		}
	})
	r.m.set("stream.decode_delta_us", us(d/nDeltas), len(frames)-1)

	led := stream.NewLedger()
	apply := func(upTo int) {
		for i, dl := range deltas[:upTo] {
			if err := led.Apply(dl, i == 0); err != nil {
				panic(err) // the frames applied cleanly when captured
			}
		}
	}
	fullOnly := perCall(r.budget, func() { apply(1) })
	all := perCall(r.budget, func() { apply(len(deltas)) })
	r.m.set("stream.ledger_apply_us", us((all-fullOnly)/nDeltas), len(frames)-1)

	var doc []byte
	d = perCall(r.budget, func() { doc = led.Assemble(doc[:0], []byte("</GRID>\n</GANGLIA_XML>\n")) })
	r.m.set("stream.assemble_us", us(d), 1)

	d = perCall(r.budget, func() {
		rd := bytes.NewReader(raw)
		for rd.Len() > 0 {
			if _, err := stream.ReadFrame(rd, 0); err != nil {
				panic(err)
			}
		}
	})
	r.m.set("stream.frame_read_mb_per_s", mbPerSec(int64(len(raw)), d), len(frames))
}

// captureFrames subscribes to the root's first child as a parent would,
// runs a few rounds, and returns the FULL frame and every DELTA frame
// the child sent.
func (r *replayer) captureFrames() ([]*stream.Frame, error) {
	lt := r.s.lt
	child := lt.root.children[0]
	conn, err := net.DialTimeout("tcp", child.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(wallNow().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, "/?filter=stream\n"); err != nil {
		return nil, err
	}
	full, err := stream.ReadFrame(conn, 0)
	if err != nil {
		return nil, err
	}
	if full.Type != stream.FrameFull {
		return nil, fmt.Errorf("expected a full frame, got %s", full.Type)
	}
	frames := []*stream.Frame{full}
	for i := 0; i < streamCaptureRounds; i++ {
		lt.pollRound(lt.clk.Advance(pollInterval), nil, 0, -1)
	}
	for gen := full.Gen; gen != child.g.Epoch(); {
		f, err := stream.ReadFrame(conn, 0)
		if err != nil {
			return nil, err
		}
		if f.Type != stream.FrameDelta {
			continue
		}
		frames = append(frames, f)
		gen = f.Gen
	}
	if len(frames) < 2 {
		return nil, fmt.Errorf("no delta frame in %d rounds", streamCaptureRounds)
	}
	return frames, nil
}
