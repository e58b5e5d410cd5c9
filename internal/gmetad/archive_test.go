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
// call, so a round's allocations do not grow with the host count (the
// cluster summary's sorted names are the only per-round allocation
// left).
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
	small, large := allocs(10), allocs(50)
	if small != large {
		t.Errorf("archiving a source allocates %.1f times a round at 10 hosts, %.1f at 50: the door costs allocations per host", small, large)
	}
	t.Logf("allocations per archived round: %.1f (10 hosts), %.1f (50 hosts)", small, large)
}
