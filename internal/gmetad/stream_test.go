package gmetad

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ganglia/internal/gxml"
	"ganglia/internal/pseudo"
	"ganglia/internal/stream"
	"ganglia/internal/transport"
)

// The subscription-link tests all share one oracle design: two parents
// observe the same child gmetad, one over a persistent delta stream
// (through a fault-injecting fabric), one over the proven poll path
// (through the clean fabric). Whatever the stream link suffers, the
// subscribed parent must converge to render byte-identically to the
// polling oracle once the link resyncs — and every divergence window in
// between must be visible in the stream counters, never silent.

const streamChildAddr = "sdsc:8651"

type streamRig struct {
	r      *rig
	fnet   *transport.FaultNetwork
	child  *Gmetad
	sub    *Gmetad // subscribing parent, dialing through fnet
	oracle *Gmetad // polling parent, dialing the clean fabric
	churns []*pseudo.ChurnGmond
	// subIn and oracleIn count the bytes each parent read off the
	// in-memory network.
	subIn, oracleIn *countingNetwork
}

// countingNetwork counts every byte read from the connections it
// dials: what a parent actually received on the wire.
type countingNetwork struct {
	transport.Network
	n atomic.Int64
}

func (c *countingNetwork) Dial(addr string) (net.Conn, error) {
	conn, err := c.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, n: &c.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// newStreamRig stands up the oracle topology: two controlled-churn
// clusters, a child gmetad serving its query port, and the two parents.
func newStreamRig(t *testing.T, mode Mode, churn float64) *streamRig {
	r := newRig(t)
	sr := &streamRig{r: r, fnet: transport.NewFaultNetwork(r.net, 1, r.clk)}
	for _, c := range []struct {
		name, addr string
		hosts      int
	}{
		{"alpha", "alpha:8649", 8},
		{"beta", "beta:8649", 5},
	} {
		p := pseudo.NewChurn(c.name, c.hosts, churn, 15*time.Second, r.clk)
		l, err := r.net.Listen(c.addr)
		if err != nil {
			t.Fatal(err)
		}
		go p.Serve(l)
		t.Cleanup(p.Close)
		sr.churns = append(sr.churns, p)
	}
	sr.child = r.gmetad(Config{
		GridName:  "sdsc",
		Authority: "http://sdsc/",
		Mode:      mode,
		Sources: []DataSource{
			{Name: "alpha", Kind: SourceGmond, Addrs: []string{"alpha:8649"}},
			{Name: "beta", Kind: SourceGmond, Addrs: []string{"beta:8649"}},
		},
		// Real-time heartbeats keep an idle link visibly alive without
		// perturbing state; fast ones keep the test snappy.
		StreamHeartbeat: 200 * time.Millisecond,
	}, streamChildAddr)
	parent := func(nw transport.Network, subscribe bool) *Gmetad {
		return r.gmetad(Config{
			GridName:  "earth",
			Authority: "http://earth/",
			Mode:      mode,
			Network:   nw,
			Sources: []DataSource{{
				Name: "sdsc", Kind: SourceGmetad,
				Addrs: []string{streamChildAddr}, Subscribe: subscribe,
			}},
			// Hang faults burn wall time up to the read deadline.
			ReadTimeout:       150 * time.Millisecond,
			StreamIdleTimeout: 3 * time.Second,
		}, "")
	}
	sr.subIn = &countingNetwork{Network: sr.fnet}
	sr.oracleIn = &countingNetwork{Network: r.net}
	sr.sub = parent(sr.subIn, true)
	sr.oracle = parent(sr.oracleIn, false)
	return sr
}

// round advances one polling round: the child refreshes from its
// gmonds (bumping the feed), the subscriber is given a chance to drain
// the resulting frames, then both parents take their poll round (a
// covered slot skips; a degraded link falls back or relaunches).
// It reports whether the link ended the round streaming and caught up.
//
// The oracle polls from a cold host memo every round — every HOST
// tokenized, nothing carried over — while the subscribed parent keeps
// whatever its stream link and its fallback polls have remembered, so
// the comparison also proves memoized ingest against cold ingest
// through every fault regime.
func (sr *streamRig) round() bool {
	now := sr.r.clk.Advance(15 * time.Second)
	sr.child.PollOnce(now)
	synced := sr.awaitQuiesce(2 * time.Second)
	for _, slot := range sr.oracle.order {
		slot.memo = hostMemo{}
	}
	sr.oracle.PollOnce(now)
	sr.sub.PollOnce(now)
	return synced
}

// awaitQuiesce waits (wall clock) until no subscriber activity is
// pending: the link has either applied every generation the child has
// published, or it is idle — down, with no connect attempt in flight.
// An attempt in flight is waited out, so a slow handshake is not taken
// for a failed one. Only then is a comparison against the oracle
// meaningful.
func (sr *streamRig) awaitQuiesce(within time.Duration) bool {
	sub := sr.sub.order[0].sub
	deadline := time.Now().Add(within)
	for {
		// State and generation are read under one lock: a handshake
		// completing between two reads cannot look like an idle link.
		sub.mu.Lock()
		state, gen := sub.state, sub.gen
		sub.mu.Unlock()
		switch {
		case state == subStreaming && gen == sr.child.Epoch():
			return true
		case state == subIdle:
			return false
		case time.Now().After(deadline):
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// establish drives rounds until the subscription link is up and caught
// up (the first round only launches the connect attempt).
func (sr *streamRig) establish() {
	sr.r.t.Helper()
	for i := 0; i < 30; i++ {
		if sr.round() {
			return
		}
	}
	sr.r.t.Fatal("subscription link never established")
}

// streamCorpus is the query corpus the equivalence oracle runs: root
// and summary forms, the child grid, nested clusters, hosts, metrics,
// regexes, and a not-found probe. Together "/"+the rest cover every
// byte both parents can serve.
func streamCorpus() []string {
	return []string{
		"/",
		"/?filter=summary",
		"/sdsc",
		"/sdsc?filter=summary",
		"/alpha",
		"/alpha?filter=summary",
		"/beta",
		"/alpha/compute-alpha-0",
		"/alpha/compute-alpha-3/churn_metric_2",
		"/alpha/compute-alpha-1/~^churn_",
		"/~^a/~^compute-",
		"/nosuch",
		"/alpha/nosuch",
	}
}

// compare asserts the subscribed parent answers the whole corpus
// byte-identically to the polling oracle.
func (sr *streamRig) compare(label string) {
	t := sr.r.t
	t.Helper()
	for _, q := range streamCorpus() {
		want, errW := renderGolden(t, sr.oracle, q)
		got, errG := renderGolden(t, sr.sub, q)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s %q: oracle err=%v, subscribed err=%v", label, q, errW, errG)
		}
		if errW != nil {
			if !errors.Is(errW, ErrNotFound) || !errors.Is(errG, ErrNotFound) {
				t.Fatalf("%s %q: non-NotFound errors: oracle=%v subscribed=%v", label, q, errW, errG)
			}
			continue
		}
		if want != got {
			t.Fatalf("%s %q: subscribed parent diverged from polling oracle\n%s",
				label, q, excerptDiff(want, got))
		}
	}
}

// TestStreamSubscriptionConverges is the fault-free baseline: once the
// link is up the subscribed parent tracks the child delta-by-delta,
// renders byte-identically to the polling oracle every round, and stops
// polling entirely while covered.
func TestStreamSubscriptionConverges(t *testing.T) {
	sr := newStreamRig(t, OneLevel, 0.25)
	sr.establish()
	st := sr.sub.Status()[0]
	if !st.Streaming || st.StreamGen != sr.child.Epoch() {
		t.Fatalf("status after establish: %+v (child epoch %d)", st, sr.child.Epoch())
	}

	before := sr.sub.Accounting().Snapshot()
	for i := 0; i < 6; i++ {
		if !sr.round() {
			t.Fatalf("round %d: link fell off with no faults injected", i)
		}
		sr.compare("steady")
	}
	after := sr.sub.Accounting().Snapshot()
	if after.Polls != before.Polls {
		t.Errorf("subscribed parent polled %d times while covered by the stream", after.Polls-before.Polls)
	}
	if after.StreamFrames <= before.StreamFrames {
		t.Error("no delta frames applied across six churn rounds")
	}
	if after.StreamGaps != before.StreamGaps || after.StreamFallbacks != before.StreamFallbacks {
		t.Errorf("faultless run counted gaps/fallbacks: %+v -> %+v", before, after)
	}
	if after.StreamResyncs != 1 {
		t.Errorf("resyncs = %d, want exactly the initial FULL sync", after.StreamResyncs)
	}
}

// TestStreamDeltaBytesUnderHalfOfPoll pins what a subscription link
// saves: at 1 % and 10 % churn the subscribed parent reads less than
// half the bytes the polling parent downloads over the same rounds,
// while applying frames the whole window and never gapping or falling
// back to a poll.
func TestStreamDeltaBytesUnderHalfOfPoll(t *testing.T) {
	for _, churn := range []float64{0.01, 0.10} {
		t.Run(fmt.Sprintf("churn=%.2f", churn), func(t *testing.T) {
			sr := newStreamRig(t, OneLevel, churn)
			sr.establish()
			before := sr.sub.Accounting().Snapshot()
			sub0, poll0 := sr.subIn.n.Load(), sr.oracleIn.n.Load()
			const rounds = 20
			for i := 0; i < rounds; i++ {
				if !sr.round() {
					t.Fatalf("round %d: link fell off with no faults injected", i)
				}
			}
			d := sr.sub.Accounting().Snapshot().Sub(before)
			sub, poll := sr.subIn.n.Load()-sub0, sr.oracleIn.n.Load()-poll0
			if d.StreamFrames == 0 {
				t.Error("no delta frames applied: the link never streamed")
			}
			if d.StreamGaps != 0 || d.StreamFallbacks != 0 {
				t.Errorf("link degraded on a clean fabric: %d gaps, %d fallbacks", d.StreamGaps, d.StreamFallbacks)
			}
			if poll == 0 {
				t.Fatal("the polling parent read nothing: the window measured nothing")
			}
			if 2*sub >= poll {
				t.Errorf("delta link read %d B per round, %.1f %% of poll's %d B; want < 50 %%",
					sub/rounds, 100*float64(sub)/float64(poll), poll/rounds)
			}
			t.Logf("delta %d B/round = %.1f %% of poll %d B/round", sub/rounds, 100*float64(sub)/float64(poll), poll/rounds)
		})
	}
}

// TestStreamChaosEquivalence is the chaos sweep: the child's address
// flaps, truncates, garbles and hangs (on the subscriber's fabric
// only), and after every fault regime heals the subscribed parent must
// resync and converge byte-identically to the untouched polling oracle
// — with the divergence window accounted for in the stream counters.
func TestStreamChaosEquivalence(t *testing.T) {
	sr := newStreamRig(t, OneLevel, 0.25)
	sr.establish()
	sr.compare("pre-chaos")

	// Every plan flaps on the same schedule — 20 s up, 40 s down per
	// minute — so each regime both cuts the live link and poisons the
	// reconnect attempts with its own failure mode.
	flap := func(mode transport.FaultMode) transport.FaultPlan {
		return transport.FaultPlan{
			Mode:       mode,
			FlapPeriod: time.Minute,
			FlapUp:     20 * time.Second,
		}
	}
	scenarios := []struct {
		name      string
		plan      transport.FaultPlan
		wantsGaps bool // regimes whose faults the gap detector must see
	}{
		{"flap", flap(transport.FaultNone), false},
		{"truncate", flap(transport.FaultTruncate), false},
		// Garble and hang hold the whole window (no flap), so every
		// redial — however the backoff jitter lands — hits the fault
		// and the detector must count it: a CRC failure for garble,
		// silence to the read deadline for hang. A flapping schedule
		// would let a redial slip through an up phase and see only the
		// disconnect.
		{"garble", transport.FaultPlan{Mode: transport.FaultGarble}, true},
		{"hang", transport.FaultPlan{Mode: transport.FaultHang}, true},
	}
	for _, sc := range scenarios {
		before := sr.sub.Accounting().Snapshot()
		sr.fnet.SetPlan(streamChildAddr, sc.plan)
		for i := 0; i < 8; i++ {
			sr.round() // two full flap cycles of abuse; divergence expected
		}
		sr.fnet.ClearPlan(streamChildAddr)
		healed := false
		for i := 0; i < 24 && !healed; i++ {
			healed = sr.round() // backoff may hold the link down a while
		}
		if !healed {
			t.Fatalf("%s: link never resynced after the fault cleared", sc.name)
		}
		sr.compare(sc.name)
		after := sr.sub.Accounting().Snapshot()
		if after.StreamFallbacks <= before.StreamFallbacks {
			t.Errorf("%s: divergence window ended with no counted fallback", sc.name)
		}
		if after.StreamResyncs <= before.StreamResyncs {
			t.Errorf("%s: recovery happened with no counted resync", sc.name)
		}
		if sc.wantsGaps && after.StreamGaps <= before.StreamGaps {
			t.Errorf("%s: fault regime left no counted gap", sc.name)
		}
		if after.HostsReused <= before.HostsReused {
			t.Errorf("%s: the subscribed parent went through the regime without a warm memo", sc.name)
		}
	}
	if n := sr.oracle.Accounting().Snapshot().HostsReused; n != 0 {
		t.Errorf("the cold oracle reused %d hosts", n)
	}
}

// TestStreamSummaryMode runs the oracle in N-level mode, where the feed
// carries the child's O(m) summary form and the parents reduce it
// identically.
func TestStreamSummaryMode(t *testing.T) {
	sr := newStreamRig(t, NLevel, 0.5)
	sr.establish()
	for i := 0; i < 4; i++ {
		if !sr.round() {
			t.Fatalf("round %d: summary link fell off with no faults injected", i)
		}
		sr.compare("summary")
	}
}

// TestStreamDrain exercises the graceful half of shutdown on both ends:
// a draining child flushes a BYE so its subscriber falls back cleanly
// (a counted fallback, not a gap), Drain returns true on both daemons,
// and no goroutines outlive the teardown.
func TestStreamDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	sr := newStreamRig(t, OneLevel, 0.25)
	sr.establish()

	before := sr.sub.Accounting().Snapshot()
	if !sr.child.Drain(2 * time.Second) {
		t.Fatal("child Drain timed out with an active subscription feed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for sr.sub.Status()[0].Streaming {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never observed the child's BYE")
		}
		time.Sleep(time.Millisecond)
	}
	after := sr.sub.Accounting().Snapshot()
	if after.StreamFallbacks <= before.StreamFallbacks {
		t.Error("BYE teardown was not counted as a fallback")
	}
	if after.StreamGaps != before.StreamGaps {
		t.Error("a clean BYE was miscounted as a gap")
	}

	// The drained child refuses polls too; the subscriber's next round
	// must take the fallback path without wedging.
	now := sr.r.clk.Advance(15 * time.Second)
	sr.sub.PollOnce(now)

	if !sr.sub.Drain(2 * time.Second) {
		t.Fatal("subscriber Drain timed out")
	}
	sr.sub.Close()
	sr.oracle.Close()
	sr.child.Close()
	for _, p := range sr.churns {
		p.Close() // stop the emulators' accept loops before counting
	}

	deadline = time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak after Drain+Close: %d running, started with %d", n, base)
	}
}

// captureFullFrame subscribes to a child's feed directly and returns
// the initial FULL frame, for tests that replay real feed material
// through a misbehaving producer.
func captureFullFrame(t *testing.T, r *rig, addr string) *stream.Frame {
	t.Helper()
	c, err := r.net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("/?filter=stream\n")); err != nil {
		t.Fatal(err)
	}
	f, err := stream.ReadFrame(bufio.NewReader(c), stream.DefaultMaxPayload)
	if err != nil {
		t.Fatalf("read FULL frame: %v", err)
	}
	if f.Type != stream.FrameFull {
		t.Fatalf("first frame = %s, want full", f.Type)
	}
	return f
}

// fakeProducer serves scripted frames to every subscriber that dials
// addr: a real FULL sync (gen 5) followed by whatever frames the script
// returns, modeling a producer that violates the protocol.
func fakeProducer(t *testing.T, r *rig, addr string, full []byte, script func() []*stream.Frame) {
	t.Helper()
	l, err := r.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
					return
				}
				if stream.WriteFrame(c, &stream.Frame{Type: stream.FrameFull, Gen: 5, Payload: full}) != nil {
					return
				}
				for _, f := range script() {
					if stream.WriteFrame(c, f) != nil {
						return
					}
				}
				// Hold the connection so the subscriber's next failure is
				// the scripted protocol violation, not a disconnect.
				buf := make([]byte, 1)
				_, _ = c.Read(buf)
			}(c)
		}
	}()
}

// subscribeTo builds a parent subscribed to addr and drives its poll
// gate once to launch the link.
func subscribeTo(r *rig, addr string) *Gmetad {
	g := r.gmetad(Config{
		GridName:  "earth",
		Authority: "http://earth/",
		Mode:      OneLevel,
		Sources: []DataSource{{
			Name: "sdsc", Kind: SourceGmetad, Addrs: []string{addr}, Subscribe: true,
		}},
		ReadTimeout:       150 * time.Millisecond,
		StreamIdleTimeout: 250 * time.Millisecond,
	}, "")
	g.PollOnce(r.clk.Now())
	return g
}

// awaitCounter polls an accounting snapshot until pick returns true.
func awaitCounter(t *testing.T, g *Gmetad, what string, pick func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := g.Accounting().Snapshot()
		if pick(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; counters: %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscriberGenerationGap feeds the subscriber a delta whose Prev
// does not extend the applied generation: the gap must be detected and
// counted, the FULL sync must have landed, and the link must tear down
// to the poll path.
func TestSubscriberGenerationGap(t *testing.T) {
	sr := newStreamRig(t, OneLevel, 0.25)
	sr.child.PollOnce(sr.r.clk.Now())
	full := captureFullFrame(t, sr.r, streamChildAddr)

	skip := stream.AppendDelta(nil, &stream.Delta{Header: []byte("x")})
	fakeProducer(t, sr.r, "fake:7777", full.Payload, func() []*stream.Frame {
		return []*stream.Frame{{Type: stream.FrameDelta, Gen: 7, Prev: 6, Payload: skip}}
	})
	g := subscribeTo(sr.r, "fake:7777")

	s := awaitCounter(t, g, "generation gap", func(s Snapshot) bool {
		return s.StreamGaps >= 1 && s.StreamFallbacks >= 1
	})
	if s.StreamResyncs < 1 {
		t.Errorf("FULL sync before the gap was not counted: %+v", s)
	}
	if st := g.Status()[0]; st.Streaming {
		t.Error("link still marked streaming after a generation gap")
	}
}

// TestSubscriberIdleTimeout starves a synced link: a producer that goes
// silent past StreamIdleTimeout (with no heartbeats) is a counted gap,
// and the slot returns to the poll path.
func TestSubscriberIdleTimeout(t *testing.T) {
	sr := newStreamRig(t, OneLevel, 0.25)
	sr.child.PollOnce(sr.r.clk.Now())
	full := captureFullFrame(t, sr.r, streamChildAddr)

	fakeProducer(t, sr.r, "fake:7777", full.Payload, func() []*stream.Frame { return nil })
	g := subscribeTo(sr.r, "fake:7777")

	awaitCounter(t, g, "idle-timeout gap", func(s Snapshot) bool {
		return s.StreamGaps >= 1 && s.StreamFallbacks >= 1 && s.StreamResyncs >= 1
	})
}

// TestFragmentSpanReassembly pins the span invariant the delta producer
// is built on: a gmond fragment's recorded cluster-open and host spans,
// plus the shared ClusterClose constant, reassemble the fragment's
// cluster section byte-for-byte.
func TestFragmentSpanReassembly(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 6, 1)
	g := r.gmetad(Config{
		GridName:  "sdsc",
		Authority: "http://sdsc/",
		Sources:   []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "")
	g.PollOnce(r.clk.Now())

	data, _ := g.order[0].snapshot()
	frag := g.fragment(data, nil)
	if len(frag.spans) == 0 {
		t.Fatal("published fragment has no recorded spans")
	}
	var rebuilt []byte
	for _, cs := range frag.spans {
		rebuilt = append(rebuilt, frag.clusters[cs.open.off:cs.open.end]...)
		for _, hs := range cs.hosts {
			rebuilt = append(rebuilt, frag.clusters[hs.b.off:hs.b.end]...)
		}
		rebuilt = append(rebuilt, stream.ClusterClose...)
	}
	if !bytes.Equal(rebuilt, frag.clusters) {
		t.Fatalf("span reassembly diverges from the rendered fragment\n%s",
			excerptDiff(string(frag.clusters), string(rebuilt)))
	}
}

// TestWatchLongPoll exercises the ?filter=watch long-poll on both of
// its release edges: a tree change answers promptly, and an unchanged
// tree answers at WatchTimeout.
func TestWatchLongPoll(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 4, 1)
	g := r.gmetad(Config{
		GridName:     "sdsc",
		Authority:    "http://sdsc/",
		Sources:      []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
		WatchTimeout: 400 * time.Millisecond,
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	watch := func(q string) (<-chan *rigAnswer, func()) {
		out := make(chan *rigAnswer, 1)
		go func() {
			rep, err := r.ask("sdsc:8652", q)
			out <- &rigAnswer{rep: rep, err: err}
		}()
		return out, func() {}
	}

	// Change edge: the answer is withheld until the next publish.
	got, _ := watch("/meteor?filter=watch")
	select {
	case a := <-got:
		t.Fatalf("watch answered before any change: %+v, %v", a.rep, a.err)
	case <-time.After(100 * time.Millisecond):
	}
	g.PollOnce(r.clk.Advance(15 * time.Second))
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatalf("watch answer: %v", a.err)
		}
		if len(a.rep.Grids) != 1 || len(a.rep.Grids[0].Clusters) != 1 {
			t.Fatalf("watch answer shape: %+v", a.rep)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watch did not release on the epoch bump")
	}

	// Timeout edge: no change, the wall-clock watch timer answers.
	start := time.Now()
	got, _ = watch("/?filter=watch")
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatalf("watch timeout answer: %v", a.err)
		}
		if time.Since(start) < 200*time.Millisecond {
			t.Error("watch answered early with no change")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("watch did not release at WatchTimeout")
	}
}

type rigAnswer struct {
	rep *gxml.Report
	err error
}
