package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	spec   *workloadSpec
	seed   int64
	phases phases
	trace  bool
	// setups is how many times the tree is set up; setup_s is the median
	// of all but the first (which pays for the process's cold start)
	// and the last tree is the one measured.
	setups int
	// replayBudget is how long each isolated-layer measurement of a
	// traced run's replay stage lasts; outDir is where its span file and
	// scratch archives go.
	replayBudget time.Duration
	outDir       string
}

// runResult is what one run reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Metrics   map[string]metricValue `json:"metrics"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Failures  []string               `json:"failures,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
	// HistoryFillS is how long the archive fill after set-up took.
	HistoryFillS float64 `json:"history_fill_s"`
}

// prepare sets the tree up cfg.setups times and returns the last one,
// with its history filled and one page of every kind loaded, plus every
// set-up time.
func prepare(cfg runConfig, fails *failureLog) (*session, []float64, float64, error) {
	var setupTimes []float64
	var s *session
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.lt.close()
			s = nil
			runtime.GC()
		}
		start := wallNow()
		var err error
		s, err = setUp(cfg.spec, cfg.seed, fails)
		if err != nil {
			return nil, nil, 0, err
		}
		setupTimes = append(setupTimes, wallNow().Sub(start).Seconds())
	}
	fillStart := wallNow()
	for i := 0; i < cfg.spec.HistoryRounds; i++ {
		if res := s.lt.pollRound(s.lt.clk.Advance(pollInterval), nil, 0, -1); res.pollFails > 0 {
			s.lt.close()
			return nil, nil, 0, fmt.Errorf("history fill: %d source polls failed", res.pollFails)
		}
	}
	fill := wallNow().Sub(fillStart).Seconds()
	s.lt.histEnd = s.lt.clk.Now()
	// One page of every kind in the mix: plans are checked and the
	// history answer size is learnt before anything is timed.
	for _, m := range cfg.spec.Mix {
		p := s.planner.plan(m.Kind)
		if _, err := s.viewer.do(&p, nil, 0); err != nil {
			s.lt.close()
			return nil, nil, 0, fmt.Errorf("warm pass: %w", err)
		}
	}
	return s, setupTimes, fill, nil
}

// timedRun measures the end-to-end metrics with tracing off: set-up,
// the open-loop phase A, the two capacity phases, then the oracle.
func timedRun(cfg runConfig) (*runResult, error) {
	fails := &failureLog{}
	s, setupTimes, fill, err := prepare(cfg, fails)
	if err != nil {
		return nil, err
	}
	defer s.lt.close()

	a := s.runOpen(cfg.phases.A, nil)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	hostsPerSec, b1Rounds := s.runBackToBack(cfg.phases.B1)
	viewsPerSec, b2Views := s.runClosedViews(cfg.phases.B2)
	s.oracle()

	m := newMetricSet(endToEnd)
	// The first set-up of a process also grows the heap and faults its
	// pages in; it is a warm-up, and the rest are measured.
	if len(setupTimes) > 1 {
		setupTimes = setupTimes[1:]
	}
	m.set("setup_s", median(setupTimes), len(setupTimes))
	round := durationsMs(a.roundLat)
	fresh := durationsMs(a.freshLat)
	query := durationsMs(latencies(a.views))
	m.setPercentile("round_p50_ms", round, 50)
	m.setPercentile("fresh_p50_ms", fresh, 50)
	m.setPercentile("query_p50_ms", query, 50)
	m.set("cpu_pct", 100*float64(a.after.cpu-a.before.cpu)/float64(a.wall()), 1)
	wan := a.after.net[edgeWAN].sub(a.before.net[edgeWAN])
	m.set("wan_bytes_per_round", float64(wan.Bytes)/float64(len(a.rounds)), len(a.rounds))
	m.set("heap_live_mb", float64(mem.HeapAlloc)/1e6, 1)
	m.set("hosts_per_s", hostsPerSec, b1Rounds)
	m.set("views_per_s", viewsPerSec, b2Views)
	return finish(cfg, m, fails, fill), nil
}

// finish turns a metric set and the failure log into a result.
func finish(cfg runConfig, m *metricSet, fails *failureLog, fill float64) *runResult {
	res := &runResult{
		Workload: cfg.spec.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: m.values,
		Attempted: fails.attempted, Failed: fails.failed, Failures: fails.messages, HistoryFillS: fill,
	}
	for _, name := range m.missing() {
		res.Failed++
		res.Failures = append(res.Failures, "metric "+name+" was not measured")
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

// watchdog ends the process if a run hangs: a run must finish well
// inside the harness's 180-second limit even when the system under test
// stalls. The returned function disarms it.
func watchdog(limit time.Duration) (stop func()) {
	t := time.AfterFunc(limit, func() { //lint:allow clock the watchdog bounds real elapsed time
		panic(fmt.Sprintf("benchmark: run exceeded %v; a daemon is stuck", limit))
	})
	return func() { t.Stop() }
}
