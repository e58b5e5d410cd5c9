package gmetad

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ganglia/internal/pseudo"
	"ganglia/internal/query"
	"ganglia/internal/transport"
)

// faultRig wraps the standard rig's fabric in a FaultNetwork so tests
// can inject the wide area's partial failures into the poll path.
func faultRig(t *testing.T) (*rig, *transport.FaultNetwork) {
	r := newRig(t)
	return r, transport.NewFaultNetwork(r.net, 1, r.clk)
}

func TestFlappingSourceStickyFailover(t *testing.T) {
	// A primary that accepts and then hangs on a timed schedule — the
	// wide area's nastiest failure — must cost at most a couple of
	// rounds before the poller settles on the healthy replica, and must
	// NOT flap back when the primary recovers: last-good is sticky.
	r, fnet := faultRig(t)
	r.cluster("meteor", "prim:8649", 4, 1)
	r.cluster("meteor", "back:8649", 4, 1)
	// Healthy for the first minute of every 5, hanging the other 4.
	fnet.SetPlan("prim:8649", transport.FaultPlan{
		Mode:       transport.FaultHang,
		FlapPeriod: 5 * time.Minute,
		FlapUp:     time.Minute,
	})
	// The backup is down too at first — a real outage window — and
	// comes back after round 6.
	fnet.SetPlan("back:8649", transport.FaultPlan{Mode: transport.FaultRefuse})

	g := r.gmetad(Config{
		GridName:    "SDSC",
		Network:     fnet,
		ReadTimeout: 100 * time.Millisecond, // hang reads burn wall time
		Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"prim:8649", "back:8649"}}},
		Archive:     true,
		ArchiveSpec: smallArchive(),
	}, "sdsc:8652")

	// Hammer the query port concurrently: polling, failover bookkeeping
	// and serving must coexist under the race detector, and every
	// response must stay well-formed mid-transition.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.ask("sdsc:8652", "/?filter=summary"); err != nil {
				t.Errorf("query during chaos: %v", err)
				return
			}
		}
	}()

	var (
		firstDownRound = -1
		recoveredRound = -1
		epochAtDown    uint64
	)
	for round := 1; round <= 24; round++ { // 6 virtual minutes
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
		if round == 6 {
			fnet.ClearPlan("back:8649")
		}
		st := g.Status()[0]
		if st.Failed && firstDownRound < 0 {
			firstDownRound = round
			epochAtDown = g.Epoch()
		}
		if firstDownRound > 0 && recoveredRound < 0 && !st.Failed {
			recoveredRound = round
			if st.ActiveAddr != "back:8649" {
				t.Fatalf("recovered via %s, want back:8649", st.ActiveAddr)
			}
			if g.Epoch() == epochAtDown {
				t.Error("epoch not bumped on recovery; cached responses would go stale")
			}
		}
		// Sticky: once on the backup, later rounds never wander back to
		// the primary — not even during its healthy flap windows.
		if recoveredRound > 0 && st.ActiveAddr != "back:8649" {
			t.Fatalf("round %d: active addr moved to %s after failover", round, st.ActiveAddr)
		}
	}
	close(stop)
	wg.Wait()

	if firstDownRound < 0 {
		t.Fatal("flapping primary never produced a failed round")
	}
	if recoveredRound < 0 {
		t.Fatal("never recovered via backup")
	}
	// The backup healed after round 6; the doubled backoffs it earned
	// while refused bound how much later the poller finds it.
	if recoveredRound > 12 {
		t.Errorf("recovered at round %d, want <= 12 (backoff bound)", recoveredRound)
	}
	snap := g.Accounting().Snapshot()
	if snap.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", snap.Failovers)
	}
	if snap.PollFails < 1 {
		t.Errorf("poll fails = %d, want >= 1", snap.PollFails)
	}

	// Forensics: the missed rounds were zero-filled, not skipped — the
	// summary archive shows an explicit dip to zero amid live samples.
	rep, err := g.Report(query.MustParse("/meteor/" + SummaryHost + "/cpu_num?filter=history"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Histories) != 1 {
		t.Fatalf("histories = %d", len(rep.Histories))
	}
	var zeros, live int
	for _, p := range rep.Histories[0].Points {
		if p.Unknown() {
			continue
		}
		if p.Value == 0 {
			zeros++
		} else {
			live++
		}
	}
	if zeros == 0 {
		t.Error("down rounds left no zero-filled archive points")
	}
	if live == 0 {
		t.Error("no live archive points at all")
	}
}

func TestAddrBackoffSuppressesDialStorm(t *testing.T) {
	// Both replicas dead: the first round probes both, but repeated
	// rounds must not re-dial every address every time — backoff spaces
	// the probes out while the probe-one rule keeps at least one dial
	// per round so recovery is never missed.
	r, fnet := faultRig(t)
	g := r.gmetad(Config{
		GridName:         "SDSC",
		Network:          fnet,
		BreakerThreshold: -1, // isolate the per-address behaviour
		Sources:          []DataSource{{Name: "ghost", Kind: SourceGmond, Addrs: []string{"ghost-a:8649", "ghost-b:8649"}}},
	}, "")

	const rounds = 8
	for i := 0; i < rounds; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}

	a, b := fnet.DialCount("ghost-a:8649"), fnet.DialCount("ghost-b:8649")
	if a+b < rounds {
		t.Errorf("%d dials over %d rounds; probe-one rule broken", a+b, rounds)
	}
	if a >= rounds || b >= rounds {
		t.Errorf("dials a=%d b=%d over %d rounds; backoff suppressed nothing", a, b, rounds)
	}
	snap := g.Accounting().Snapshot()
	if snap.Backoffs < 1 {
		t.Errorf("backoff-suppressed dials = %d, want >= 1", snap.Backoffs)
	}
	if snap.AddrDialFails != int64(a+b) {
		t.Errorf("addr dial fails = %d, dial count = %d", snap.AddrDialFails, a+b)
	}
	if snap.PollFails != rounds {
		t.Errorf("poll fails = %d, want %d", snap.PollFails, rounds)
	}

	st := g.Status()[0]
	if len(st.Addrs) != 2 {
		t.Fatalf("addr statuses = %d", len(st.Addrs))
	}
	for _, as := range st.Addrs {
		if as.Fails == 0 || as.RetryAt.IsZero() {
			t.Errorf("addr %s health not tracked: %+v", as.Addr, as)
		}
	}
	if st.ConsecFails != rounds {
		t.Errorf("consecutive fails = %d, want %d", st.ConsecFails, rounds)
	}
}

func TestBreakerStretchesButNeverStops(t *testing.T) {
	// A long-dead source trips the circuit breaker: its cadence
	// stretches (bounding wasted dials) but polls never cease, so the
	// source is re-discovered promptly when it returns.
	r, fnet := faultRig(t)
	r.cluster("good", "good:8649", 3, 1)
	g := r.gmetad(Config{
		GridName:         "SDSC",
		Network:          fnet,
		BreakerThreshold: 2,
		Sources: []DataSource{
			{Name: "good", Kind: SourceGmond, Addrs: []string{"good:8649"}},
			{Name: "dead", Kind: SourceGmond, Addrs: []string{"dead:8649"}},
		},
	}, "")

	const rounds = 12
	for i := 0; i < rounds; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}

	snap := g.Accounting().Snapshot()
	if snap.BreakerTrips != 1 {
		t.Errorf("breaker trips = %d, want 1", snap.BreakerTrips)
	}
	if snap.BreakerSkips < 3 {
		t.Errorf("breaker skips = %d, want >= 3", snap.BreakerSkips)
	}
	dead := fnet.DialCount("dead:8649")
	if dead >= rounds {
		t.Errorf("dead source dialed %d times in %d rounds; breaker stretched nothing", dead, rounds)
	}
	if dead < 3 {
		t.Errorf("dead source dialed only %d times; breaker must stretch, not stop", dead)
	}
	// The healthy sibling is never held back by its dead neighbour.
	if got := fnet.DialCount("good:8649"); got != rounds {
		t.Errorf("good source dialed %d times, want every round (%d)", got, rounds)
	}
	if g.Status()[0].Failed {
		t.Error("good source marked failed")
	}
	if st := g.Status()[1]; !st.Failed || st.NextPollAt.IsZero() {
		t.Errorf("dead source status: %+v", st)
	}

	// Resurrection: once the machine is back, the stretched cadence
	// still finds it within the breaker's bounded stretch.
	r.cluster("dead", "dead:8649", 2, 2)
	recovered := false
	for i := 0; i < 6 && !recovered; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
		recovered = !g.Status()[1].Failed
	}
	if !recovered {
		t.Fatal("source not re-discovered within 6 rounds of returning")
	}
	st := g.Status()[1]
	if st.ConsecFails != 0 || !st.NextPollAt.IsZero() {
		t.Errorf("breaker not reset on recovery: %+v", st)
	}
}

func TestOversizeReportRejected(t *testing.T) {
	// A source whose report blows past MaxReportBytes is a failure (a
	// runaway or hostile peer must not balloon gmetad's memory), with a
	// distinct error and counter.
	r := newRig(t)
	r.cluster("huge", "huge:8649", 50, 1)
	g := r.gmetad(Config{
		GridName:       "SDSC",
		MaxReportBytes: 2048,
		Sources:        []DataSource{{Name: "huge", Kind: SourceGmond, Addrs: []string{"huge:8649"}}},
	}, "")
	g.PollOnce(r.clk.Now())

	st := g.Status()[0]
	if !st.Failed {
		t.Fatal("oversize report accepted")
	}
	if !strings.Contains(st.LastError, ErrReportTooLarge.Error()) {
		t.Errorf("last error %q does not mention the size cap", st.LastError)
	}
	if got := g.Accounting().Snapshot().OversizeReports; got != 1 {
		t.Errorf("oversize reports = %d, want 1", got)
	}
}

// TestMixedSourceChaos polls six sources at once through a seeded
// fault fabric that mixes the wide area's failure modes, and checks that
// each degrades and recovers as designed: chaos next door costs the
// healthy source nothing, every source with a live replica ends on it,
// a source with no live replica is missed every round but stays polled,
// an oversized report is rejected, and teardown leaves no goroutine
// behind.
func TestMixedSourceChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	r, fnet := faultRig(t)
	// Replicas of one source share a name and seed, so any of them
	// yields the same report.
	var emus []*pseudo.Gmond
	for _, c := range []struct {
		name, addr string
		hosts      int
		seed       int64
	}{
		{"steady", "steady:8649", 8, 1},
		{"triad", "triad-r1:8649", 8, 2},
		{"triad", "triad-r2:8649", 8, 2},
		{"triad", "triad-r3:8649", 8, 2},
		{"stall", "stall-r2:8649", 8, 3},
		{"garbled", "garbled-r1:8649", 8, 4},
		{"garbled", "garbled-r2:8649", 8, 4},
		{"bloat", "bloat:8649", 300, 5},
	} {
		emus = append(emus, r.cluster(c.name, c.addr, c.hosts, c.seed))
	}
	// The triad's first replica is up for the first minute of every
	// two and its second truncates every report; only the third is
	// trustworthy. stall-r1 and both dead replicas have no listener
	// behind their faults.
	fnet.SetPlan("triad-r1:8649", transport.FaultPlan{
		Mode: transport.FaultRefuse, FlapPeriod: 2 * time.Minute, FlapUp: time.Minute,
	})
	fnet.SetPlan("triad-r2:8649", transport.FaultPlan{Mode: transport.FaultTruncate, TruncateAfter: 512})
	fnet.SetPlan("stall-r1:8649", transport.FaultPlan{Mode: transport.FaultHang})
	fnet.SetPlan("garbled-r1:8649", transport.FaultPlan{Mode: transport.FaultGarble, GarbleEvery: 16})
	fnet.SetPlan("dead-r1:8649", transport.FaultPlan{Mode: transport.FaultRefuse})
	fnet.SetPlan("dead-r2:8649", transport.FaultPlan{Mode: transport.FaultRefuse})

	g := r.gmetad(Config{
		GridName:       "chaos",
		Network:        fnet,
		ReadTimeout:    150 * time.Millisecond, // hangs burn wall time
		MaxReportBytes: 256 << 10,              // bloat's report exceeds it, the rest stay well under
		Sources: []DataSource{
			{Name: "steady", Kind: SourceGmond, Addrs: []string{"steady:8649"}},
			{Name: "triad", Kind: SourceGmond, Addrs: []string{"triad-r1:8649", "triad-r2:8649", "triad-r3:8649"}},
			{Name: "stall", Kind: SourceGmond, Addrs: []string{"stall-r1:8649", "stall-r2:8649"}},
			{Name: "garbled", Kind: SourceGmond, Addrs: []string{"garbled-r1:8649", "garbled-r2:8649"}},
			{Name: "dead", Kind: SourceGmond, Addrs: []string{"dead-r1:8649", "dead-r2:8649"}},
			{Name: "bloat", Kind: SourceGmond, Addrs: []string{"bloat:8649"}},
		},
	}, "")

	// missed counts failed rounds per source; down is the current
	// failed streak, and longest the longest streak that ended in a
	// recovery.
	const rounds = 40
	missed, down, longest := map[string]int{}, map[string]int{}, map[string]int{}
	for i := 0; i < rounds; i++ {
		g.PollOnce(r.clk.Advance(15 * time.Second))
		for _, st := range g.Status() {
			if st.Failed {
				missed[st.Name]++
				down[st.Name]++
				continue
			}
			longest[st.Name] = max(longest[st.Name], down[st.Name])
			down[st.Name] = 0
		}
	}
	final := map[string]SourceStatus{}
	for _, st := range g.Status() {
		final[st.Name] = st
	}

	if st := final["steady"]; missed["steady"] != 0 || st.Failed {
		t.Errorf("healthy source missed %d rounds under sibling chaos", missed["steady"])
	}
	if st := final["triad"]; st.Failed || st.ActiveAddr != "triad-r3:8649" {
		t.Errorf("3-replica source ended active=%q failed=%v, want the healthy triad-r3:8649", st.ActiveAddr, st.Failed)
	}
	if n := longest["triad"]; n > 4 {
		t.Errorf("3-replica source took %d rounds to converge, want <= 4", n)
	}
	for _, name := range []string{"stall", "garbled"} {
		if st, want := final[name], name+"-r2:8649"; st.Failed || st.ActiveAddr != want {
			t.Errorf("%s ended active=%q failed=%v, want recovery via %s", name, st.ActiveAddr, st.Failed, want)
		}
	}
	if st := final["dead"]; !st.Failed || missed["dead"] != rounds {
		t.Errorf("dead source missed %d of %d rounds, failed=%v", missed["dead"], rounds, st.Failed)
	}
	if !final["bloat"].Failed {
		t.Error("oversized source was accepted")
	}
	s := g.Accounting().Snapshot()
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"oversize reports", s.OversizeReports},
		{"breaker trips", s.BreakerTrips},
		{"breaker-stretched rounds", s.BreakerSkips},
		{"failovers", s.Failovers},
		{"backoff-suppressed dials", s.Backoffs},
	} {
		if c.n < 1 {
			t.Errorf("%s = %d, want >= 1", c.name, c.n)
		}
	}
	if s.PollPanics != 0 {
		t.Errorf("poll workers panicked %d times", s.PollPanics)
	}

	g.Close()
	for _, e := range emus {
		e.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutine leak after teardown: %d running, started with %d", n, base)
	}
}

// panicNet is a Network whose Dial panics, standing in for any bug in
// the per-source poll machinery.
type panicNet struct{}

func (panicNet) Listen(string) (net.Listener, error) { return nil, errors.New("no listeners") }
func (panicNet) Dial(string) (net.Conn, error)       { panic("injected dial panic") }

func TestPollPanicIsolated(t *testing.T) {
	// A panic inside one source's poll must not take down the daemon:
	// it is recovered, counted, and converted into a source failure.
	r := newRig(t)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Network:  panicNet{},
		Sources:  []DataSource{{Name: "boom", Kind: SourceGmond, Addrs: []string{"boom:8649"}}},
	}, "")
	g.PollOnce(r.clk.Now())

	if got := g.Accounting().Snapshot().PollPanics; got != 1 {
		t.Errorf("poll panics = %d, want 1", got)
	}
	st := g.Status()[0]
	if !st.Failed || !strings.Contains(st.LastError, "poll panic") {
		t.Errorf("panic not converted to source failure: %+v", st)
	}
}

func TestHealthXMLTracksTransitions(t *testing.T) {
	// SOURCE_HEALTH elements must reflect the current poll state even
	// with the response cache in play: down and up transitions both
	// bump the epoch, so no stale health is ever served.
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "sdsc:8652")
	g.PollOnce(r.clk.Now())

	health := func() *struct {
		Status, Active, LastError string
		DownSince                 int64
	} {
		t.Helper()
		rep, err := r.ask("sdsc:8652", "/")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Grids) != 1 || len(rep.Grids[0].Health) != 1 {
			t.Fatalf("health elements: %+v", rep.Grids)
		}
		sh := rep.Grids[0].Health[0]
		if sh.Name != "meteor" {
			t.Fatalf("health name = %q", sh.Name)
		}
		return &struct {
			Status, Active, LastError string
			DownSince                 int64
		}{sh.Status, sh.ActiveAddr, sh.LastError, sh.DownSince}
	}

	if h := health(); h.Status != "up" || h.Active != "meteor:8649" || h.DownSince != 0 {
		t.Fatalf("healthy source: %+v", h)
	}
	// Ask twice: the second response comes from the epoch cache and
	// must agree.
	if h := health(); h.Status != "up" {
		t.Fatalf("cached health: %+v", h)
	}

	r.net.Fail("meteor:8649")
	r.clk.Advance(15 * time.Second)
	g.PollOnce(r.clk.Now())
	if h := health(); h.Status != "down" || h.DownSince == 0 || h.LastError == "" {
		t.Fatalf("failed source health: %+v", h)
	}

	r.net.Recover("meteor:8649")
	r.clk.Advance(30 * time.Second)
	g.PollOnce(r.clk.Now())
	if h := health(); h.Status != "up" || h.DownSince != 0 {
		t.Fatalf("recovered source health: %+v", h)
	}
}
