package gmetad

import (
	"testing"
	"time"

	"ganglia/internal/query"
)

func TestOneLevelLazySummaries(t *testing.T) {
	// The legacy daemon computes no summaries on the polling path, but
	// summary queries still answer (computed at query time).
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 6, 1)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Mode:     OneLevel,
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "")
	g.PollOnce(r.clk.Now())

	rep, err := g.Report(query.MustParse("/meteor?filter=summary"))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Grids[0].Clusters[0]
	if c.Summary == nil || c.Summary.Hosts() != 6 {
		t.Fatalf("1-level cluster summary: %+v", c.Summary)
	}
	rep, err = g.Report(query.MustParse("/?filter=summary"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grids[0].Summary == nil || rep.Grids[0].Summary.Hosts() != 6 {
		t.Fatalf("1-level root summary: %+v", rep.Grids[0].Summary)
	}
	// Successive lazy computations agree (no caching artifacts).
	s1, _ := g.Summary().Sum("cpu_num")
	s2, _ := g.Summary().Sum("cpu_num")
	if s1 != s2 || s1 <= 0 {
		t.Errorf("lazy summaries unstable: %v vs %v", s1, s2)
	}
}

func TestOneLevelArchivesNoSummarySeries(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName:    "SDSC",
		Mode:        OneLevel,
		Sources:     []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
		Archive:     true,
		ArchiveSpec: smallArchive(),
	}, "")
	r.clk.Advance(15 * time.Second)
	g.PollOnce(r.clk.Now())
	for _, k := range g.Pool().Keys() {
		if containsSummaryHost(k) {
			t.Errorf("1-level daemon archived summary series %q", k)
		}
	}
	if g.Pool().Len() == 0 {
		t.Error("1-level daemon archived nothing")
	}
}

func containsSummaryHost(key string) bool {
	return len(key) > 0 && (func() bool {
		for i := 0; i+len(SummaryHost) <= len(key); i++ {
			if key[i:i+len(SummaryHost)] == SummaryHost {
				return true
			}
		}
		return false
	})()
}
