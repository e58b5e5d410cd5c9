package gmetad

import (
	"strconv"
	"testing"
	"time"

	"ganglia/internal/rrd"
)

// TestArchiveSourceAllocsIndependentOfHosts gates the archive door's
// per-host cost: with every series created, archiving one source's
// round writes each host through one reused buffer and one UpdateHost
// call, and each summary's samples are sorted in that buffer, so a warm
// round allocates nothing at any host count.
func TestArchiveSourceAllocsIndependentOfHosts(t *testing.T) {
	allocs := func(hosts int) float64 {
		r := newRig(t)
		addr := "c" + strconv.Itoa(hosts) + ":8649"
		r.cluster("meteor", addr, hosts, 1)
		g := r.gmetad(Config{
			GridName:    "g",
			Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{addr}}},
			Archive:     true,
			ArchiveSpec: tinyArchive(),
		}, "")
		g.PollOnce(r.clk.Advance(15 * time.Second))
		slot := g.slots["meteor"]
		data := slot.data
		if data == nil {
			t.Fatal("first poll published nothing")
		}
		series := g.Pool().Len()
		now := r.clk.Now()
		var buf []rrd.Sample
		up0, rej0 := g.Pool().Stats()
		n := testing.AllocsPerRun(20, func() {
			now = now.Add(15 * time.Second)
			buf = g.archiveSource(data, buf, now)
		})
		up, rej := g.Pool().Stats()
		if up-up0 != 21*uint64(series) || rej != rej0 {
			t.Fatalf("%d hosts: 21 rounds wrote %d samples (%d rejected), want %d (0)", hosts, up-up0, rej-rej0, 21*series)
		}
		return n
	}
	for _, hosts := range []int{10, 50} {
		if n := allocs(hosts); n != 0 {
			t.Errorf("archiving a warm %d-host source allocates %.1f times a round, want 0", hosts, n)
		}
	}
}
