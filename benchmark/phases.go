package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ganglia/internal/clock"
)

// roundOp runs one polling round due at due: stamp a probe into the hub,
// poll the tree leaf-first, then ask the root until the probe shows. It
// returns when the round was done (the root had published) and when the
// probe became visible. withProbe false skips the probe (phase B1).
func (s *session) roundOp(due time.Time, tr *tracer, withProbe bool) (roundEnd, probeSeen time.Time, ok bool) {
	lt := s.lt
	s.ops++
	op := s.ops
	ok = true
	span := tr.begin("round", op, -1)
	now := lt.clk.Advance(pollInterval)
	if withProbe {
		s.probeSeq++
		line := fmt.Appendf(nil, "%s:%d|g", probeMetric, s.probeSeq)
		ps := tr.begin("fabric.ingest", op, span)
		lt.hub.IngestStatsd(line)
		tr.end(ps)
		ps = tr.begin("fabric.flush", op, span)
		lt.hub.Flush(now)
		tr.end(ps)
	}
	res := lt.pollRound(now, tr, op, span)
	roundEnd = wallNow()
	tr.end(span)

	s.fails.attempt()
	if res.pollFails > 0 {
		s.fails.fail("round %d: %d source polls failed", op, res.pollFails)
		ok = false
	}
	if s.lt.spec.Subscribe && !res.synced {
		s.fails.fail("round %d: a subscription link was not streaming or did not catch up", op)
		ok = false
	}
	if !withProbe {
		return roundEnd, roundEnd, ok
	}

	s.fails.attempt()
	span = tr.begin("probe.visible", op, -1)
	defer tr.end(span)
	want := float64(s.probeSeq)
	for {
		res, err := s.probeClient.Meta()
		seen := wallNow()
		if err == nil {
			if m := res.Summary.Metrics[probeMetric]; m != nil && m.Sum == want {
				return roundEnd, seen, ok
			}
		}
		if seen.Sub(roundEnd) > opTimeout {
			s.fails.fail("probe %d not visible at the root within %v (last error: %v)", s.probeSeq, opTimeout, err)
			return roundEnd, seen, false
		}
		clock.Sleep(probeRetry)
	}
}

// viewOp loads the next planned page.
func (s *session) viewOp(p *viewPlan, tr *tracer, op int64) (bytes int64, ok bool) {
	s.fails.attempt()
	start := wallNow()
	bytes, err := s.viewer.do(p, tr, op)
	if err != nil {
		s.fails.fail("view: %v", err)
		return bytes, false
	}
	if took := wallNow().Sub(start); took > opTimeout {
		s.fails.fail("%s view took %v, over the %v limit", p.kind, took, opTimeout)
		return bytes, false
	}
	return bytes, true
}

// openPhase is the outcome of one open-loop stretch.
type openPhase struct {
	before, after sysSnapshot
	rounds        []opTiming
	roundLat      []time.Duration // due → root published
	freshLat      []time.Duration // due → probe visible at the root
	views         []opTiming
	viewBytes     int64
}

func (p *openPhase) wall() time.Duration { return p.after.wall.Sub(p.before.wall) }

// runOpen runs rounds (each with a probe) and views for dur, both open
// loop on fixed schedules: a fixed number of rounds and of views, each
// timed from its due time. One goroutine drives both, in order of due
// time, so a view that falls due while a round runs waits for it (and
// its latency says so). A viewer goroutine of its own would compete with
// a round's pollers for two cores, and how the scheduler shares them
// differs from run to run by more than the metrics' bounds.
func (s *session) runOpen(dur time.Duration, tr *tracer) *openPhase {
	nRounds := int(dur.Seconds() * s.lt.spec.RoundsPerSec)
	nViews := int(dur.Seconds() * s.lt.spec.ViewsPerSec)
	roundPeriod := time.Duration(float64(time.Second) / s.lt.spec.RoundsPerSec)
	viewPeriod := time.Duration(float64(time.Second) / s.lt.spec.ViewsPerSec)
	plans := s.planner.planViews(nViews)
	ph := &openPhase{}

	runtime.GC() // every run enters the stretch at the same point of the GC cycle
	ph.before = s.lt.snapshot()
	begin := ph.before.wall
	giveUp := begin.Add(dur + openLoopGrace)

	opBase := int64(1) << 32 // view span ids, clear of round ids
	timings := openLoops(begin, giveUp,
		schedule{roundPeriod, nRounds, func(_ int, due time.Time) bool {
			roundEnd, seen, ok := s.roundOp(due, tr, true)
			if ok {
				ph.roundLat = append(ph.roundLat, roundEnd.Sub(due))
				ph.freshLat = append(ph.freshLat, seen.Sub(due))
			}
			return ok
		}},
		schedule{viewPeriod, nViews, func(i int, _ time.Time) bool {
			n, ok := s.viewOp(&plans[i], tr, opBase+int64(i))
			ph.viewBytes += n
			return ok
		}})
	ph.rounds, ph.views = timings[0], timings[1]
	ph.after = s.lt.snapshot()
	for _, ops := range [][]opTiming{ph.rounds, ph.views} {
		for _, o := range ops {
			if o.skipped {
				s.fails.attempt()
				s.fails.fail("operation due at %v never started: the loop ran out of time", o.due)
			}
		}
	}
	return ph
}

// openLoopGrace is how far past its nominal length an open-loop phase
// may run before the operations not yet started are given up (and
// counted as failed). The schedule is a fixed amount of work; on a shared
// host a noisy neighbour can slow the process several-fold for minutes,
// which must show as latency, not as a failed run.
const openLoopGrace = 40 * time.Second

// maxBackToBackRounds ends phase B1 early on a system fast enough to
// run more rounds than this in it: the archive rings (240 rows in
// rrd.DefaultSpec) must not wrap over the history window within a run.
const maxBackToBackRounds = 100

// runBackToBack is phase B1: rounds one after another with the viewer
// off, for dur. It returns host reports carried leaf to root per second
// at the median round's pace, so a burst of interference from outside
// that slows a few rounds does not move the number.
func (s *session) runBackToBack(dur time.Duration) (hostsPerSec float64, rounds int) {
	begin := wallNow()
	var took []float64
	for wallNow().Sub(begin) < dur && rounds < maxBackToBackRounds {
		start := wallNow()
		s.roundOp(start, nil, false)
		took = append(took, wallNow().Sub(start).Seconds())
		rounds++
	}
	return float64(s.lt.hosts) / median(took), rounds
}

// runClosedViews is phase B2: rounds keep to phase A's schedule when
// they can, and after each round the viewer loads pages back to back on
// its one connection for a slice of half a round period. It returns
// completed views per second of the median slice: the serve path's
// capacity with every round invalidating the caches, without the
// scheduler's luck in sharing two cores between a round and a closed
// loop deciding the number, and without a slow round eating the time the
// views are counted in. The driver goroutine does both, in turn.
func (s *session) runClosedViews(dur time.Duration) (viewsPerSec float64, views int) {
	nRounds := max(int(dur.Seconds()*s.lt.spec.RoundsPerSec), 1)
	period := time.Duration(float64(time.Second) / s.lt.spec.RoundsPerSec)
	slice := period / 2
	// Plans are drawn before the clock starts; the list wraps around if
	// the system serves more than closedLoopPlanRate views per second.
	plans := s.planner.planViews(int(dur.Seconds()*closedLoopPlanRate) + 1)
	begin := wallNow()
	var rates []float64
	for i := 0; i < nRounds; i++ {
		due := begin.Add(time.Duration(i) * period)
		sleepUntil(due)
		s.roundOp(due, nil, true)
		sliceStart, done := wallNow(), 0
		for wallNow().Sub(sliceStart) < slice {
			if _, ok := s.viewOp(&plans[views%len(plans)], nil, 0); ok {
				views++
				done++
			}
		}
		rates = append(rates, float64(done)/wallNow().Sub(sliceStart).Seconds())
	}
	return median(rates), views
}

// closedLoopPlanRate sizes the plan list of the closed-loop phase, in
// views per second.
const closedLoopPlanRate = 5000

// oracle runs one last quiescent round and checks that the tree tells
// the truth: the root's summary equals the fold of what the emulators
// and the hub report at that instant, every subscription link is still
// streaming with no gap or fallback counted, and trees without
// subscriptions counted no stream activity at all.
func (s *session) oracle() {
	lt := s.lt
	s.roundOp(wallNow(), nil, true)
	now := lt.clk.Now()

	s.fails.attempt()
	truth, err := lt.groundTruth(now)
	if err != nil {
		s.fails.fail("oracle: %v", err)
		return
	}
	res, err := s.probeClient.Meta()
	if err != nil {
		s.fails.fail("oracle: root summary: %v", err)
		return
	}
	got := res.Summary
	if got.HostsUp != truth.HostsUp || got.HostsDown != truth.HostsDown {
		s.fails.fail("oracle: root counts %d up / %d down, emulators report %d / %d",
			got.HostsUp, got.HostsDown, truth.HostsUp, truth.HostsDown)
	}
	if len(got.Metrics) != len(truth.Metrics) {
		s.fails.fail("oracle: root summarizes %d metrics, emulators report %d", len(got.Metrics), len(truth.Metrics))
	}
	for name, want := range truth.Metrics {
		m := got.Metrics[name]
		if m == nil {
			s.fails.fail("oracle: metric %s missing from the root summary", name)
			continue
		}
		if m.Num != want.Num || math.Abs(m.Sum-want.Sum) > 1e-9*math.Max(1, math.Abs(want.Sum)) {
			s.fails.fail("oracle: %s is SUM %v NUM %d at the root, SUM %v NUM %d at the emulators",
				name, m.Sum, m.Num, want.Sum, want.Num)
		}
	}

	s.fails.attempt()
	acct := lt.acctTotals()
	if s.lt.spec.Subscribe {
		if !lt.allSynced() {
			s.fails.fail("oracle: a subscription link is not streaming at the end of the run")
		}
		if acct.streamGaps != 0 || acct.streamFallbacks != 0 {
			s.fails.fail("oracle: %d stream gaps and %d fallbacks on a clean network", acct.streamGaps, acct.streamFallbacks)
		}
	} else if acct.rootFrames != 0 || acct.streamGaps != 0 || acct.streamFallbacks != 0 {
		s.fails.fail("oracle: stream counters moved on a tree without subscriptions (%d frames, %d gaps, %d fallbacks)",
			acct.rootFrames, acct.streamGaps, acct.streamFallbacks)
	}
}
