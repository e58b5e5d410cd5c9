package main

import (
	"runtime"
	"strings"
	"time"
)

// tracedRun measures the per-layer metrics: a short untraced reference
// stretch, the same stretch again with spans recorded around every call
// into a layer, the oracle, then the replay stage. Its numbers never
// feed the end-to-end metrics; the difference between the two stretches
// is the tracing overhead.
func tracedRun(cfg runConfig) (*runResult, error) {
	fails := &failureLog{}
	cfg.setups = 1
	s, _, fill, err := prepare(cfg, fails)
	if err != nil {
		return nil, err
	}
	ref := s.runOpen(cfg.phases.TraceRef, nil)
	tr := newTracer()
	a := s.runOpen(cfg.phases.TraceA, tr)
	spans := tr.closed()
	s.oracle()

	m := newMetricSet(perLayer)
	phaseLayers(m, s, ref, a, spans)
	s.replay(m, cfg.replayBudget, cfg.outDir)
	end := s.lt.acctTotals()
	m.set("stream.gaps", float64(end.streamGaps), 1)
	m.set("stream.fallbacks", float64(end.streamFallbacks), 1)

	s.lt.close()
	m.set("process.goroutines_end", float64(runtime.NumGoroutine()), 1)
	m.set("process.rss_peak_mb", peakRSSMB(), 1)

	res := finish(cfg, m, fails, fill)
	path, err := writeTrace(cfg.outDir, cfg.spec.Name, spans)
	if err != nil {
		return nil, err
	}
	res.TraceFile = path
	return res, nil
}

// phaseLayers fills the per-layer metrics that come from the traced
// stretch's spans and counter deltas.
func phaseLayers(m *metricSet, s *session, ref, a *openPhase, spans []span) {
	rounds := float64(len(a.rounds))
	perRound := func(v float64) float64 { return v / rounds }
	net := func(c edgeClass) edgeSnapshot { return a.after.net[c].sub(a.before.net[c]) }
	lan, wan, view := net(edgeLAN), net(edgeWAN), net(edgeView)

	conns := lan.Conns + wan.Conns + view.Conns
	m.set("transport.dial_us", us(lan.Dial+wan.Dial+view.Dial)/float64(max(conns, 1)), int(conns))
	m.set("transport.conns_per_round", perRound(float64(lan.Conns+wan.Conns)), len(a.rounds))
	m.set("transport.lan_bytes_per_round", perRound(float64(lan.Bytes)), len(a.rounds))

	// One value per round for each tier: the summed time of that tier's
	// PollOnce calls in the round.
	tiers := map[string]map[int64]int64{}
	byName := map[string][]float64{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		if tier, ok := strings.CutPrefix(sp.Name, "gmetad.poll_"); ok {
			if tiers[tier] == nil {
				tiers[tier] = map[int64]int64{}
			}
			tiers[tier][sp.Op] += d
		}
		byName[sp.Name] = append(byName[sp.Name], float64(d)/1e6)
	}
	for _, tier := range []string{"leaf", "mid", "root"} {
		var perOp []float64
		for _, ns := range tiers[tier] {
			perOp = append(perOp, float64(ns)/1e6)
		}
		setMedian(m, "gmetad.poll_"+tier+"_ms", perOp)
	}

	acct := func(f func(acctTotals) time.Duration) float64 {
		return perRound(ms(f(a.after.acct) - f(a.before.acct)))
	}
	m.set("gmetad.acct_download_parse_ms_per_round", acct(func(t acctTotals) time.Duration { return t.downloadParse }), len(a.rounds))
	m.set("gmetad.acct_summarize_ms_per_round", acct(func(t acctTotals) time.Duration { return t.summarize }), len(a.rounds))
	m.set("gmetad.acct_archive_ms_per_round", acct(func(t acctTotals) time.Duration { return t.archive }), len(a.rounds))
	m.set("gmetad.acct_render_ms_per_round", acct(func(t acctTotals) time.Duration { return t.render }), len(a.rounds))
	m.set("gmetad.acct_serve_ms_per_round", acct(func(t acctTotals) time.Duration { return t.serve }), len(a.rounds))
	m.set("rrd.lock_wait_ms", ms(a.after.acct.shardWait-a.before.acct.shardWait), len(a.rounds))

	polls := a.after.acct.polls - a.before.acct.polls
	m.set("gmetad.poll_fail_ratio", ratio(a.after.acct.pollFails-a.before.acct.pollFails, polls), int(polls))
	hits := a.after.acct.cacheHits - a.before.acct.cacheHits
	misses := a.after.acct.cacheMisses - a.before.acct.cacheMisses
	m.set("gmetad.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	m.set("gmetad.fragment_fallbacks", float64(a.after.acct.fragmentFallbacks-a.before.acct.fragmentFallbacks), 1)

	m.set("stream.frames_per_round", perRound(float64(a.after.acct.rootFrames-a.before.acct.rootFrames)), len(a.rounds))
	deltaBytes := 0.0
	if s.lt.spec.Subscribe {
		deltaBytes = perRound(float64(wan.Bytes))
	}
	m.set("stream.delta_bytes_per_round", deltaBytes, len(a.rounds))
	setMedian(m, "stream.apply_lag_p50_ms", byName["stream.sync_wait"])

	setMedian(m, "webfront.meta_ms", byName["webfront.meta"])
	setMedian(m, "webfront.cluster_ms", byName["webfront.cluster"])
	setMedian(m, "webfront.host_ms", byName["webfront.host"])
	setMedian(m, "webfront.history_ms", byName["webfront.history"])
	viewsRun := len(lateness(a.views))
	m.set("webfront.bytes_per_view", float64(a.viewBytes)/float64(max(viewsRun, 1)), viewsRun)

	m.set("process.alloc_mb_per_round", perRound(float64(a.after.mem.TotalAlloc-a.before.mem.TotalAlloc)/1e6), len(a.rounds))
	m.set("process.gc_cycles", float64(a.after.mem.NumGC-a.before.mem.NumGC), 1)
	m.set("process.gc_pause_ms_total", float64(a.after.mem.PauseTotalNs-a.before.mem.PauseTotalNs)/1e6, 1)

	m.setPercentile("driver.round_p90_ms", durationsMs(a.roundLat), 90)
	m.setPercentile("driver.fresh_p90_ms", durationsMs(a.freshLat), 90)
	m.setPercentile("driver.query_p99_ms", durationsMs(latencies(a.views)), 99)
	late := durationsMs(append(lateness(a.rounds), lateness(a.views)...))
	m.setPercentile("driver.sched_late_p90_ms", late, 90)
	refP50, traced := median(durationsMs(ref.roundLat)), median(durationsMs(a.roundLat))
	m.set("driver.trace_overhead_pct", 100*(traced-refP50)/refP50, len(a.roundLat))
}

// setMedian records the median of xs, or zero when the workload never
// exercised the layer.
func setMedian(m *metricSet, name string, xs []float64) {
	if len(xs) == 0 {
		m.set(name, 0, 0)
		return
	}
	m.setPercentile(name, xs, 50)
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
