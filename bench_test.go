// Benchmarks regenerating the paper's evaluation (§3), one per table
// and figure. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark drives the fig-2 monitoring tree (six gmetads, twelve
// pseudo-gmond clusters) through polling rounds and reports the work
// measured, as %CPU-at-15s-polling where meaningful. The cmd/ganglia-bench
// binary runs the same experiments at full paper scale and prints the
// figures as tables; EXPERIMENTS.md records paper-vs-measured.
package ganglia

import (
	"fmt"
	"io"
	"testing"
	"time"

	"ganglia/internal/bench"
	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/gmond"
	"ganglia/internal/oscollect"
	"ganglia/internal/rrd"
	"ganglia/internal/transport"
	"ganglia/internal/tree"
	"ganglia/internal/webfront"
)

var benchT0 = time.Unix(1_057_000_000, 0)

// buildFig2 stands up the fig-2 tree for benchmarking.
func buildFig2(b *testing.B, mode gmetad.Mode, hosts int) (*tree.Instance, *clock.Virtual) {
	b.Helper()
	clk := clock.NewVirtual(benchT0)
	inst, err := tree.Build(tree.FigureTwo(hosts), tree.BuildConfig{
		Mode:    mode,
		Archive: true,
		ArchiveSpec: rrd.Spec{
			Step:      15 * time.Second,
			Heartbeat: 60 * time.Second,
			Archives:  []rrd.ArchiveSpec{{Step: 15 * time.Second, Rows: 32, CF: rrd.Average}},
		},
		Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	// Warm-up round so steady-state rounds are measured.
	clk.Advance(15 * time.Second)
	inst.PollRound(clk.Now())
	return inst, clk
}

// benchFig5 measures one design of Figure 5: the per-round processing
// work of the whole monitoring tree at the paper's scale (12 clusters ×
// 100 hosts). The custom metric "cpu%/tree" is the aggregate %CPU all
// six gmetads would consume polling every 15 s.
func benchFig5(b *testing.B, mode gmetad.Mode) {
	inst, clk := buildFig2(b, mode, 100)
	before := make(map[string]gmetad.Snapshot)
	for name, g := range inst.Gmetads {
		before[name] = g.Accounting().Snapshot()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(15 * time.Second)
		inst.PollRound(clk.Now())
	}
	b.StopTimer()
	var work time.Duration
	for name, g := range inst.Gmetads {
		work += g.Accounting().Snapshot().Sub(before[name]).Work()
	}
	window := time.Duration(b.N) * 15 * time.Second
	b.ReportMetric(float64(work)/float64(window)*100, "cpu%/tree")
}

// BenchmarkFig5TreeOneLevel is Figure 5's 1-level series.
func BenchmarkFig5TreeOneLevel(b *testing.B) { benchFig5(b, gmetad.OneLevel) }

// BenchmarkFig5TreeNLevel is Figure 5's N-level series.
func BenchmarkFig5TreeNLevel(b *testing.B) { benchFig5(b, gmetad.NLevel) }

// BenchmarkFig6ClusterSize is Figure 6: aggregate tree work as the
// monitored cluster size sweeps the paper's x-axis.
func BenchmarkFig6ClusterSize(b *testing.B) {
	for _, size := range []int{10, 50, 100, 200} {
		for _, mode := range []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel} {
			b.Run(fmt.Sprintf("%s/hosts=%d", mode, size), func(b *testing.B) {
				inst, clk := buildFig2(b, mode, size)
				before := make(map[string]gmetad.Snapshot)
				for name, g := range inst.Gmetads {
					before[name] = g.Accounting().Snapshot()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clk.Advance(15 * time.Second)
					inst.PollRound(clk.Now())
				}
				b.StopTimer()
				var work time.Duration
				for name, g := range inst.Gmetads {
					work += g.Accounting().Snapshot().Sub(before[name]).Work()
				}
				window := time.Duration(b.N) * 15 * time.Second
				b.ReportMetric(float64(work)/float64(window)*100, "cpu%/tree")
			})
		}
	}
}

// BenchmarkTable1Views is Table 1: the viewer's download-and-parse time
// per view, against the sdsc gmetad, for both designs. ns/op is the
// paper's cell value.
func BenchmarkTable1Views(b *testing.B) {
	for _, mode := range []gmetad.Mode{gmetad.OneLevel, gmetad.NLevel} {
		inst, _ := buildFig2(b, mode, 100)
		viewer := &webfront.Viewer{
			Network:      inst.Net,
			Addr:         tree.QueryAddr("sdsc"),
			QuerySupport: mode == gmetad.NLevel,
		}
		views := []struct {
			name string
			run  func() (*webfront.Result, error)
		}{
			{"Meta", viewer.Meta},
			{"Cluster", func() (*webfront.Result, error) { return viewer.Cluster("nashi-a") }},
			{"Host", func() (*webfront.Result, error) { return viewer.Host("nashi-a", "compute-nashi-a-0") }},
		}
		for _, v := range views {
			b.Run(fmt.Sprintf("%s/%s", mode, v.name), func(b *testing.B) {
				var bytes int64
				for i := 0; i < b.N; i++ {
					res, err := v.run()
					if err != nil {
						b.Fatal(err)
					}
					bytes = res.Bytes
				}
				b.ReportMetric(float64(bytes), "xml-bytes")
			})
		}
	}
}

// BenchmarkGmonBandwidth reproduces the §2.1 traffic claim: steady-state
// multicast load of a 128-node gmond cluster, reported as kbit/s.
func BenchmarkGmonBandwidth(b *testing.B) {
	bus := transport.NewInMemBus()
	clk := clock.NewVirtual(benchT0)
	var agents []*gmond.Gmond
	for i := 0; i < 128; i++ {
		host := fmt.Sprintf("n%d", i)
		g, err := gmond.New(gmond.Config{
			Cluster: "bench", Host: host, Bus: bus, Clock: clk,
			Collector: oscollect.NewSimHost(host, int64(i+1), benchT0),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		agents = append(agents, g)
	}
	for i := 0; i < 30; i++ { // warm up: every metric announced once
		now := clk.Advance(time.Second)
		for _, g := range agents {
			g.Step(now)
		}
	}
	start := bus.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := clk.Advance(time.Second)
		for _, g := range agents {
			g.Step(now)
		}
	}
	b.StopTimer()
	end := bus.Stats()
	kbps := float64(end.Bytes-start.Bytes) * 8 / float64(b.N) / 1000
	b.ReportMetric(kbps, "kbit/s")
}

// BenchmarkExperimentRunners exercises the full experiment harness at
// reduced scale, so the packaged runners themselves stay healthy.
func BenchmarkExperimentRunners(b *testing.B) {
	b.Run("Fig5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.RunFig5(bench.Fig5Config{ClusterSize: 20, Rounds: 2, WarmupRounds: 1})
			if err != nil {
				b.Fatal(err)
			}
			if errs := res.ShapeErrors(); len(errs) > 0 {
				b.Fatalf("shape: %v", errs)
			}
		}
	})
	b.Run("Table1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.RunTable1(bench.Table1Config{ClusterSize: 30, Samples: 2})
			if err != nil {
				b.Fatal(err)
			}
			if errs := res.ShapeErrors(); len(errs) > 0 {
				b.Fatalf("shape: %v", errs)
			}
		}
	})
}

// BenchmarkServeThroughput measures the serve hot path: repeat queries
// against the fig-2 root at the paper's Figure 5 scale (12 clusters ×
// 100 hosts). Every repeat of one poll epoch is answered from the
// rendered-response cache; ns/op is one full query round trip.
func BenchmarkServeThroughput(b *testing.B) {
	clk := clock.NewVirtual(benchT0)
	inst, err := tree.Build(tree.FigureTwo(100), tree.BuildConfig{
		Mode:  gmetad.NLevel,
		Clock: clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	clk.Advance(15 * time.Second)
	inst.PollRound(clk.Now())
	for _, q := range []struct{ name, line string }{
		{"Root", "/"},
		{"Cluster", "/meteor-a"},
		{"Host", "/meteor-a/compute-meteor-a-0"},
	} {
		b.Run(q.name, func(b *testing.B) {
			ask := func() int64 {
				conn, err := inst.Net.Dial(tree.QueryAddr("root"))
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				if _, err := io.WriteString(conn, q.line+"\n"); err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, conn)
				if err != nil || n == 0 {
					b.Fatalf("response: %d bytes, %v", n, err)
				}
				return n
			}
			bytes := ask() // warm the cache before timing
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask()
			}
		})
	}
}

// BenchmarkHistoryQuery measures the archive history path (the §2.1
// "basic queries" against the round-robin databases) over the wire.
func BenchmarkHistoryQuery(b *testing.B) {
	inst, clk := buildFig2(b, gmetad.NLevel, 50)
	for i := 0; i < 8; i++ {
		clk.Advance(15 * time.Second)
		inst.PollRound(clk.Now())
	}
	viewer := &webfront.Viewer{
		Network:      inst.Net,
		Addr:         tree.QueryAddr("sdsc"),
		QuerySupport: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := viewer.History("nashi-a", "compute-nashi-a-0", "load_one"); err != nil {
			b.Fatal(err)
		}
	}
}
