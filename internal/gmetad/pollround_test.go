package gmetad

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganglia/internal/pseudo"
	"ganglia/internal/transport"
)

// dialGate holds every gated cluster's report until n connections have
// been accepted across all of them.
type dialGate struct {
	left    atomic.Int64
	open    chan struct{}
	release func()
}

func newDialGate(t *testing.T, n int) *dialGate {
	g := &dialGate{open: make(chan struct{})}
	g.left.Store(int64(n))
	g.release = sync.OnceFunc(func() { close(g.open) })
	t.Cleanup(g.release) // never leave a server blocked behind a failed test
	return g
}

func (g *dialGate) arrive() {
	if g.left.Add(-1) == 0 {
		g.release()
	}
}

// gatedCluster serves a pseudo-gmond at addr that writes each
// connection's report only once the gate has opened. A round that
// polls its sources one after another waits on the first source for a
// dial that never comes, and times it out.
func (r *rig) gatedCluster(name, addr string, hosts int, seed int64, gate *dialGate) {
	r.t.Helper()
	p := pseudo.New(name, hosts, seed, r.clk)
	l, err := r.net.Listen(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			gate.arrive()
			go func(c net.Conn) {
				defer c.Close()
				<-gate.open
				_ = p.WriteXML(c)
			}(c)
		}
	}()
}

// gatedSources starts n gated clusters behind one gate and returns
// their data sources.
func (r *rig) gatedSources(n int) []DataSource {
	gate := newDialGate(r.t, n)
	var srcs []DataSource
	for i := range n {
		name := fmt.Sprintf("c%d", i)
		addr := name + ":8649"
		r.gatedCluster(name, addr, 4, int64(i+1), gate)
		srcs = append(srcs, DataSource{Name: name, Kind: SourceGmond, Addrs: []string{addr}})
	}
	return srcs
}

// checkRound fails the test unless every source in healthy published a
// snapshot polled at now and every source in failed failed the round.
func checkRound(t *testing.T, g *Gmetad, now time.Time, failed map[string]bool) {
	t.Helper()
	for _, st := range g.Status() {
		switch {
		case failed[st.Name] && !st.Failed:
			t.Errorf("source %s did not fail the round", st.Name)
		case !failed[st.Name] && (st.Failed || !st.LastPolled.Equal(now)):
			t.Errorf("source %s: failed=%v (%s), polled at %v, want published at %v",
				st.Name, st.Failed, st.LastError, st.LastPolled, now)
		}
	}
}

// TestPollOnceOverlapsSources checks that one round polls its sources
// at once, like the paper's one poller thread per data source: each
// source's report is written only after every source has been dialed,
// so a round that polls them in turn cannot publish them all.
func TestPollOnceOverlapsSources(t *testing.T) {
	r := newRig(t)
	g := r.gmetad(Config{
		GridName:    "g",
		ReadTimeout: time.Second, // bounds a round that polls in turn
		Sources:     r.gatedSources(3),
	}, "")
	now := r.clk.Advance(15 * time.Second)
	g.PollOnce(now)
	checkRound(t, g, now, nil)
	if fails := g.Accounting().Snapshot().PollFails; fails != 0 {
		t.Errorf("%d polls failed, want 0", fails)
	}
}

// TestPollOnceHungSourceDelaysNoSibling puts a source that accepts and
// never answers first in the round: it fails by ReadTimeout, and its
// healthy siblings, gated on each other's dials, publish in the same
// round.
func TestPollOnceHungSourceDelaysNoSibling(t *testing.T) {
	r, fnet := faultRig(t)
	fnet.SetPlan("stall:8649", transport.FaultPlan{Mode: transport.FaultHang})
	srcs := append([]DataSource{{Name: "stall", Kind: SourceGmond, Addrs: []string{"stall:8649"}}}, r.gatedSources(3)...)
	g := r.gmetad(Config{
		GridName:    "g",
		Network:     fnet,
		ReadTimeout: time.Second,
		Sources:     srcs,
	}, "")
	now := r.clk.Advance(15 * time.Second)
	g.PollOnce(now)
	checkRound(t, g, now, map[string]bool{"stall": true})
}
