package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ganglia/internal/webfront"
)

const (
	// warmRounds is how many rounds set-up runs before it checks that
	// every link is synced.
	warmRounds = 4
	// maxSyncRounds bounds the extra rounds set-up grants subscription
	// links to come up.
	maxSyncRounds = 20
	// opTimeout is the limit past which a view or a probe counts as
	// failed.
	opTimeout = 2 * time.Second
	// probeRetry is the pause between root queries while a probe is not
	// yet visible.
	probeRetry = 200 * time.Microsecond
)

// opTiming is one operation of a paced loop, as offsets from the loop's
// start. An operation the loop never started (it ran out of time) has
// skipped set.
type opTiming struct {
	due, start, end time.Duration
	failed, skipped bool
}

// schedule is one activity of an open loop: n operations, the i-th due
// at begin+i*period. op returns false on failure.
type schedule struct {
	period time.Duration
	n      int
	op     func(i int, due time.Time) bool
}

// openLoops fires every schedule's operations at their due instants, one
// at a time on the calling goroutine and in order of due time, whether or
// not earlier operations finished on time: a stalled operation delays
// the start of later ones but never their due time, so their latency
// (end-due) carries the wait. Operations not yet started at giveUp are
// skipped. It returns one timing list per schedule.
func openLoops(begin, giveUp time.Time, scheds ...schedule) [][]opTiming {
	out := make([][]opTiming, len(scheds))
	next := make([]int, len(scheds))
	for k, sc := range scheds {
		out[k] = make([]opTiming, sc.n)
	}
	for {
		k, due := -1, time.Time{}
		for j, sc := range scheds {
			if d := begin.Add(time.Duration(next[j]) * sc.period); next[j] < sc.n && (k < 0 || d.Before(due)) {
				k, due = j, d
			}
		}
		if k < 0 {
			return out
		}
		i := next[k]
		next[k]++
		t := &out[k][i]
		t.due = due.Sub(begin)
		sleepUntil(due)
		start := wallNow()
		if start.After(giveUp) {
			t.skipped, t.failed = true, true
			continue
		}
		ok := scheds[k].op(i, due)
		t.start, t.end, t.failed = start.Sub(begin), wallNow().Sub(begin), !ok
	}
}

// latencies returns end-due of every operation that ran and succeeded.
func latencies(ops []opTiming) []time.Duration {
	var out []time.Duration
	for _, o := range ops {
		if !o.failed {
			out = append(out, o.end-o.due)
		}
	}
	return out
}

// lateness returns start-due of every operation that ran: how late the
// generator itself was.
func lateness(ops []opTiming) []time.Duration {
	var out []time.Duration
	for _, o := range ops {
		if !o.skipped {
			out = append(out, o.start-o.due)
		}
	}
	return out
}

// failureLog counts attempts and failures across goroutines and keeps
// the first few failure messages.
type failureLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

func (f *failureLog) attempt() {
	f.mu.Lock()
	f.attempted++
	f.mu.Unlock()
}

func (f *failureLog) fail(format string, args ...any) {
	f.mu.Lock()
	f.failed++
	if len(f.messages) < 10 {
		f.messages = append(f.messages, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// sysSnapshot is the process- and tree-wide counter state at a phase
// edge.
type sysSnapshot struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
	net  [edgeClasses]edgeSnapshot
	acct acctTotals
}

// acctTotals sums the gmetad accounting fields the benchmark reports,
// across every daemon of the tree. rootFrames is the root's own
// StreamFrames: the frames subscribers applied, not the ones children
// served.
type acctTotals struct {
	downloadParse, summarize, archive, render, serve time.Duration
	polls, pollFails                                 int64
	cacheHits, cacheMisses, fragmentFallbacks        int64
	streamGaps, streamFallbacks                      int64
	rootFrames                                       int64
	shardWait                                        time.Duration
}

func (lt *liveTree) acctTotals() acctTotals {
	var t acctTotals
	for _, d := range lt.order {
		s := d.g.Accounting().Snapshot()
		t.downloadParse += s.DownloadParse
		t.summarize += s.Summarize
		t.archive += s.Archive
		t.render += s.Render
		t.serve += s.Serve
		t.polls += s.Polls
		t.pollFails += s.PollFails
		t.cacheHits += s.CacheHits
		t.cacheMisses += s.CacheMisses
		t.fragmentFallbacks += s.FragmentFallbacks
		t.streamGaps += s.StreamGaps
		t.streamFallbacks += s.StreamFallbacks
		t.shardWait += s.ArchiveShardWait
		if d == lt.root {
			t.rootFrames = s.StreamFrames
		}
	}
	return t
}

// processCPU is user plus system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MB (Linux reports
// kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func (lt *liveTree) snapshot() sysSnapshot {
	s := sysSnapshot{wall: wallNow(), cpu: processCPU(), acct: lt.acctTotals()}
	runtime.ReadMemStats(&s.mem)
	for c := edgeClass(0); c < edgeClasses; c++ {
		s.net[c] = lt.counters.snapshot(c)
	}
	return s
}

// session is one set-up tree plus everything a run does to it.
type session struct {
	lt     *liveTree
	fails  *failureLog
	viewer *viewer
	// probeClient is the driver goroutine's own viewer of the root.
	probeClient *webfront.Viewer
	probeSeq    int64
	planner     *planner
	ops         int64 // span operation ids
}

// setUp builds the tree and warms it up: warmRounds rounds, then more
// until every subscription link streams and has caught up, then one
// Meta and one Host view so first-query work is paid. It is the whole
// of setup_s.
func setUp(spec *workloadSpec, seed int64, fails *failureLog) (*session, error) {
	lt, err := buildTree(spec, seed)
	if err != nil {
		return nil, err
	}
	s := &session{
		lt: lt, fails: fails, viewer: newViewer(lt),
		probeClient: &webfront.Viewer{Network: lt.viewNet, Addr: lt.root.addr, QuerySupport: true},
	}
	for i := 1; ; i++ {
		res := lt.pollRound(lt.clk.Advance(pollInterval), nil, 0, -1)
		if res.pollFails > 0 {
			lt.close()
			return nil, fmt.Errorf("set-up: %d source polls failed in warm-up round %d", res.pollFails, i)
		}
		// A subscription link comes up on its own goroutine after the
		// first poll asked for it. Waiting for it here, not for whichever
		// later round happens to find it up, gives every set-up the same
		// number of rounds.
		lt.waitStreaming(streamSyncTimeout)
		if i >= warmRounds && lt.allSynced() {
			break
		}
		if i >= maxSyncRounds {
			lt.close()
			return nil, fmt.Errorf("set-up: subscription links not synced after %d rounds", i)
		}
	}
	s.planner = newPlanner(lt, rand.New(rand.NewSource(seed)))
	for _, kind := range []viewKind{viewMeta, viewHost} {
		p := s.planner.plan(kind)
		if _, err := s.viewer.do(&p, nil, 0); err != nil {
			lt.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return s, nil
}
