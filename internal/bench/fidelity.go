package bench

import (
	"fmt"
	"math"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/gmond"
	"ganglia/internal/oscollect"
	"ganglia/internal/pseudo"
	"ganglia/internal/query"
	"ganglia/internal/transport"
)

// FidelityConfig parameterizes the pseudo-gmond fidelity check.
type FidelityConfig struct {
	// Hosts is the cluster size under comparison.
	Hosts int
	// Rounds is the number of measured polling rounds.
	Rounds int
}

func (c *FidelityConfig) defaults() {
	if c.Hosts == 0 {
		c.Hosts = 64
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
}

// FidelityResult compares what polling a pseudo-gmond emulator and
// polling a cluster of real gmond agents drive through the same gmetad.
//
// The paper asserts its emulators "behave identically to a cluster's
// gmon daemons ... their XML output conforms to the Ganglia DTD, and
// therefore requires the same processing effort by the gmeta system
// under study" (§3). The paper could only argue this; because this
// repository implements both the emulator and the real agent, it can
// measure it. The claim is about input, so the check gates on counts
// that depend only on the input — bytes, hosts, metrics, series — and
// prints the wall-clock work beside them.
type FidelityResult struct {
	Config FidelityConfig

	Pseudo, Real FidelitySide
}

// FidelitySide is what one backend drove through the gmetad.
type FidelitySide struct {
	// Work is the gmetad's accounted work per round: wall clock, so it
	// is printed, never gated.
	Work time.Duration
	// Bytes is the XML downloaded per round.
	Bytes int64
	// HostsParsed and HostsReused are HOST elements per round that the
	// ingest tokenized and that it took over unchanged from the
	// previous report (means over the measured rounds, so one extra
	// parse in one round shows).
	HostsParsed, HostsReused float64
	// Metrics is the METRIC element count per host of the cluster the
	// gmetad serves after the run.
	Metrics float64
	// Series is the number of archived series after the run, and
	// Archivable the number the archive contract asks for: the numeric
	// METRIC elements the gmetad serves after the run plus the metrics
	// of the cluster's summary.
	Series, Archivable int
	// Written and Rejected are the archive samples the pool accepted
	// and refused in each measured round (Pool.Stats deltas).
	Written, Rejected []uint64
}

// RunFidelity measures both backends.
func RunFidelity(cfg FidelityConfig) (*FidelityResult, error) {
	cfg.defaults()
	res := &FidelityResult{Config: cfg}

	measure := func(addr string, setup func(net *transport.InMemNetwork, clk *clock.Virtual) (cleanup func(), step func(now time.Time))) (FidelitySide, error) {
		net := transport.NewInMemNetwork()
		clk := clock.NewVirtual(t0)
		cleanup, step := setup(net, clk)
		defer cleanup()
		g, err := gmetad.New(gmetad.Config{
			GridName:    "fidelity",
			Network:     net,
			Clock:       clk,
			Sources:     []gmetad.DataSource{{Name: "c", Kind: gmetad.SourceGmond, Addrs: []string{addr}}},
			Archive:     true,
			ArchiveSpec: experimentArchive(),
		})
		if err != nil {
			return FidelitySide{}, err
		}
		defer g.Close()
		// round polls once and returns the archive samples the pool
		// accepted and refused meanwhile.
		round := func() (written, rejected uint64) {
			now := clk.Advance(15 * time.Second)
			if step != nil {
				step(now)
			}
			up, rej := g.Pool().Stats()
			g.PollOnce(now)
			up2, rej2 := g.Pool().Stats()
			return up2 - up, rej2 - rej
		}
		round() // warm-up
		round()
		before := g.Accounting().Snapshot()
		var side FidelitySide
		for i := 0; i < cfg.Rounds; i++ {
			w, r := round()
			side.Written = append(side.Written, w)
			side.Rejected = append(side.Rejected, r)
		}
		d := g.Accounting().Snapshot().Sub(before)
		n := int64(cfg.Rounds)
		side.Work = d.Work() / time.Duration(n)
		side.Bytes = d.BytesIn / n
		side.HostsParsed = float64(d.HostsParsed) / float64(n)
		side.HostsReused = float64(d.HostsReused) / float64(n)
		side.Series = g.Pool().Len()
		rep, err := g.Report(query.MustParse("/c"))
		if err != nil {
			return FidelitySide{}, err
		}
		hosts, metrics := 0, 0
		for _, grid := range rep.Grids {
			for _, c := range grid.Clusters {
				for _, h := range c.Hosts {
					hosts++
					metrics += len(h.Metrics)
					for i := range h.Metrics {
						if _, ok := h.Metrics[i].Val.Float64(); ok {
							side.Archivable++
						}
					}
				}
				side.Archivable += len(c.Summarize().Metrics)
			}
		}
		if hosts > 0 {
			side.Metrics = float64(metrics) / float64(hosts)
		}
		return side, nil
	}

	// Backend 1: the pseudo-gmond emulator.
	var perr error
	res.Pseudo, perr = measure("cluster:8649",
		func(net *transport.InMemNetwork, clk *clock.Virtual) (func(), func(time.Time)) {
			p := pseudo.New("c", cfg.Hosts, 1, clk)
			l, err := net.Listen("cluster:8649")
			if err != nil {
				perr = err
				return func() {}, nil
			}
			go p.Serve(l)
			return p.Close, nil
		})
	if perr != nil {
		return nil, perr
	}

	// Backend 2: real gmond agents sharing a multicast channel; the
	// first agent serves the cluster report.
	var gerr error
	res.Real, gerr = measure("cluster:8649",
		func(net *transport.InMemNetwork, clk *clock.Virtual) (func(), func(time.Time)) {
			bus := transport.NewInMemBus()
			agents := make([]*gmond.Gmond, 0, cfg.Hosts)
			for i := 0; i < cfg.Hosts; i++ {
				host := fmt.Sprintf("compute-c-%d", i)
				a, err := gmond.New(gmond.Config{
					Cluster: "c", Host: host, Bus: bus, Clock: clk,
					Collector: oscollect.NewSimHost(host, int64(i+1), t0),
				})
				if err != nil {
					gerr = err
					return func() {}, nil
				}
				agents = append(agents, a)
			}
			step := func(now time.Time) {
				for _, a := range agents {
					a.Step(now)
				}
			}
			// Seed full state before serving.
			for i := 0; i < 30; i++ {
				step(clk.Advance(time.Second))
			}
			l, err := net.Listen("cluster:8649")
			if err != nil {
				gerr = err
				return func() {}, nil
			}
			go agents[0].Serve(l)
			cleanup := func() {
				for _, a := range agents {
					a.Close()
				}
			}
			return cleanup, step
		})
	if gerr != nil {
		return nil, gerr
	}
	return res, nil
}

// ShapeErrors verifies the paper's "same processing effort" claim on
// what both backends drive through the gmetad, per round:
//   - every host is parsed once: HostsParsed equals the cluster size,
//     and almost nothing is reused (both backends change every host's
//     bytes every round, so the gmetad pays the full parse for both);
//   - the same schema: equal METRIC elements per host and equal
//     archived series;
//   - the archive contract: one series per numeric metric served and
//     per summary metric, and every round writes one sample per series
//     and the pool refuses none;
//   - the same XML volume up to the values' text: the backends draw
//     different values, never different elements, so the byte counts
//     may differ by less than half a METRIC element per host. A
//     dropped metric or a repeated host moves them further.
func (r *FidelityResult) ShapeErrors() []string {
	p, q := r.Pseudo, r.Real
	if p.Bytes == 0 || q.Bytes == 0 || p.Metrics == 0 || q.Metrics == 0 {
		return []string{"no XML measured"}
	}
	var errs []string
	hosts := float64(r.Config.Hosts)
	for _, s := range []struct {
		name string
		side FidelitySide
	}{{"pseudo", p}, {"real", q}} {
		if s.side.HostsParsed != hosts {
			errs = append(errs, fmt.Sprintf("%s: %.1f hosts parsed per round, want %.0f", s.name, s.side.HostsParsed, hosts))
		}
		// ≈ 0: at most one host in a hundred reused.
		if 100*s.side.HostsReused > s.side.HostsParsed+s.side.HostsReused {
			errs = append(errs, fmt.Sprintf("%s: %.1f of %.1f hosts reused per round, want ≈ 0",
				s.name, s.side.HostsReused, s.side.HostsParsed+s.side.HostsReused))
		}
		if s.side.Series != s.side.Archivable {
			errs = append(errs, fmt.Sprintf("%s: %d series archived, want %d (numeric metrics served plus summary metrics)", s.name, s.side.Series, s.side.Archivable))
		}
		if len(s.side.Written) == 0 {
			errs = append(errs, fmt.Sprintf("%s: no archive samples measured", s.name))
		}
		for i, w := range s.side.Written {
			if w != uint64(s.side.Series) {
				errs = append(errs, fmt.Sprintf("%s: round %d wrote %d archive samples, want one per series (%d)", s.name, i+1, w, s.side.Series))
			}
		}
		for i, r := range s.side.Rejected {
			if r != 0 {
				errs = append(errs, fmt.Sprintf("%s: round %d had %d archive samples rejected, want 0", s.name, i+1, r))
			}
		}
	}
	if p.Metrics != q.Metrics {
		errs = append(errs, fmt.Sprintf("metrics per host: pseudo %.2f, real %.2f", p.Metrics, q.Metrics))
	}
	if p.Series != q.Series {
		errs = append(errs, fmt.Sprintf("series archived: pseudo %d, real %d", p.Series, q.Series))
	}
	// Half a METRIC element per host, from the real side's own volume.
	bound := float64(q.Bytes) / (2 * q.Metrics)
	if d := math.Abs(float64(p.Bytes - q.Bytes)); d >= bound {
		errs = append(errs, fmt.Sprintf(
			"XML per round differs by %.0f B (pseudo %d B, real %d B); bound %.0f B, half a metric per host",
			d, p.Bytes, q.Bytes, bound))
	}
	return errs
}

// Table renders the comparison.
func (r *FidelityResult) Table() string {
	p, q := r.Pseudo, r.Real
	return fmt.Sprintf(
		"Pseudo-gmond fidelity (§3 claim: same processing effort as real gmond)\n"+
			"  cluster size:     %d hosts, %d rounds\n"+
			"  XML per round:    pseudo %d bytes, real %d bytes\n"+
			"  hosts per round:  pseudo %.1f parsed + %.1f reused, real %.1f parsed + %.1f reused\n"+
			"  metrics per host: pseudo %.2f, real %.2f\n"+
			"  series archived:  pseudo %d, real %d\n"+
			"  archive samples:  pseudo %v written, %v rejected; real %v written, %v rejected (per round)\n"+
			"  gmetad work:      pseudo %v/round, real %v/round (wall clock, not gated)\n",
		r.Config.Hosts, r.Config.Rounds,
		p.Bytes, q.Bytes,
		p.HostsParsed, p.HostsReused, q.HostsParsed, q.HostsReused,
		p.Metrics, q.Metrics,
		p.Series, q.Series,
		p.Written, p.Rejected, q.Written, q.Rejected,
		p.Work, q.Work)
}
