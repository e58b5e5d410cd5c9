package gmetad

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTreeSummaryHistoryIndependent checks that the grid summary is a
// function of the current snapshots alone. Daemon A polls twelve
// sources for 40 rounds; fresh daemons B (same configuration) and C
// (sources configured in reverse order) poll once at A's last instant.
// All three hold identical snapshots, so they must serve the same
// summary bytes and the same SUM bits: floating-point addition does not
// associate, and a total kept as a running delta, or folded in
// configuration or publish order, differs in the last digits.
func TestTreeSummaryHistoryIndependent(t *testing.T) {
	r := newRig(t)
	var sources []DataSource
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("c%02d", i)
		addr := name + ":8649"
		r.cluster(name, addr, 50, int64(i+1))
		sources = append(sources, DataSource{Name: name, Kind: SourceGmond, Addrs: []string{addr}})
	}
	reversed := slices.Clone(sources)
	slices.Reverse(reversed)
	cfg := func(srcs []DataSource) Config {
		return Config{GridName: "SDSC", Authority: "http://sdsc/", Mode: NLevel, Sources: srcs}
	}

	a := r.gmetad(cfg(sources), "a:8652")
	for round := 0; round < 40; round++ {
		a.PollOnce(r.clk.Advance(15 * time.Second))
	}
	b := r.gmetad(cfg(sources), "b:8652")
	b.PollOnce(r.clk.Now())
	c := r.gmetad(cfg(reversed), "c:8652")
	c.PollOnce(r.clk.Now())

	// The SOURCE_HEALTH records follow the configured source order, so
	// they are compared as a set; everything else must match byte for
	// byte.
	body := func(addr string) (health []string, rest string) {
		t.Helper()
		raw, err := r.askRaw(addr, "/?filter=summary")
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		i := strings.Index(raw, "LOCALTIME=")
		if i < 0 {
			t.Fatalf("%s: no LOCALTIME header in %q", addr, raw)
		}
		var sb strings.Builder
		for _, line := range strings.SplitAfter(raw[i:], "\n")[1:] {
			if strings.HasPrefix(line, "<SOURCE_HEALTH ") {
				health = append(health, line)
			} else {
				sb.WriteString(line)
			}
		}
		slices.Sort(health)
		return health, sb.String()
	}
	aHealth, aRest := body("a:8652")
	if !strings.Contains(aRest, "<METRICS ") {
		t.Fatalf("summary answer carries no METRICS:\n%s", aRest)
	}
	want := a.Summary()
	for _, peer := range []struct {
		name, addr string
		g          *Gmetad
	}{{"B", "b:8652", b}, {"C", "c:8652", c}} {
		health, rest := body(peer.addr)
		if !slices.Equal(health, aHealth) {
			t.Errorf("%s: SOURCE_HEALTH records differ from A:\n%s\nwant\n%s", peer.name, health, aHealth)
		}
		if rest != aRest {
			t.Errorf("%s: summary body differs from A\n%s", peer.name, excerptDiff(rest, aRest))
		}

		got := peer.g.Summary()
		if got.HostsUp != want.HostsUp || got.HostsDown != want.HostsDown || len(got.Metrics) != len(want.Metrics) {
			t.Errorf("%s: %d/%d hosts and %d metrics, A has %d/%d and %d", peer.name,
				got.HostsUp, got.HostsDown, len(got.Metrics), want.HostsUp, want.HostsDown, len(want.Metrics))
		}
		differ := 0
		for _, name := range want.Names() {
			wm, gm := want.Metrics[name], got.Metrics[name]
			if gm == nil || gm.Num != wm.Num ||
				math.Float64bits(gm.Sum) != math.Float64bits(wm.Sum) ||
				math.Float64bits(gm.SumSq) != math.Float64bits(wm.SumSq) {
				differ++
				t.Logf("%s: %s = %+v, A has SUM %v SUMSQ %v NUM %d", peer.name, name, gm, wm.Sum, wm.SumSq, wm.Num)
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of %d summary metrics differ from A", peer.name, differ, len(want.Metrics))
		}
	}
}
