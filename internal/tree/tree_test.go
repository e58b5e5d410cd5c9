package tree

import (
	"strings"
	"testing"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/query"
)

var t0 = time.Unix(1_057_000_000, 0)

func TestFigureTwoShape(t *testing.T) {
	topo := FigureTwo(100)
	if err := topo.Validate(); err != nil {
		t.Fatalf("fig 2 invalid: %v", err)
	}
	if len(topo.Nodes) != 6 {
		t.Errorf("nodes = %d, want 6 gmetads", len(topo.Nodes))
	}
	if topo.ClusterCount() != 12 {
		t.Errorf("clusters = %d, want 12", topo.ClusterCount())
	}
	if topo.HostCount() != 1200 {
		t.Errorf("hosts = %d, want 1200", topo.HostCount())
	}
	names := topo.GmetadNames()
	want := []string{"root", "ucsd", "physics", "math", "sdsc", "attic"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"empty", Topology{}},
		{"bad root", Topology{Root: "x", Nodes: []Node{{Name: "a"}}}},
		{"unknown child", Topology{Root: "a", Nodes: []Node{{Name: "a", Children: []string{"b"}}}}},
		{"duplicate node", Topology{Root: "a", Nodes: []Node{{Name: "a"}, {Name: "a"}}}},
		{"two parents", Topology{Root: "a", Nodes: []Node{
			{Name: "a", Children: []string{"b", "c"}},
			{Name: "b", Children: []string{"c"}},
			{Name: "c"},
		}}},
		{"root has parent", Topology{Root: "a", Nodes: []Node{
			{Name: "a", Children: []string{"b"}},
			{Name: "b", Children: []string{"a"}},
		}}},
		{"orphan", Topology{Root: "a", Nodes: []Node{{Name: "a"}, {Name: "b"}}}},
		{"duplicate cluster", Topology{Root: "a", Nodes: []Node{
			{Name: "a", Clusters: []ClusterSpec{{Name: "c", Hosts: 1}, {Name: "c", Hosts: 1}}},
		}}},
		{"zero hosts", Topology{Root: "a", Nodes: []Node{
			{Name: "a", Clusters: []ClusterSpec{{Name: "c", Hosts: 0}}},
		}}},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

func TestLeafFirstOrder(t *testing.T) {
	topo := FigureTwo(1)
	order := topo.LeafFirst()
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	for _, edge := range [][2]string{{"physics", "ucsd"}, {"math", "ucsd"}, {"ucsd", "root"}, {"attic", "sdsc"}, {"sdsc", "root"}} {
		if pos[edge[0]] > pos[edge[1]] {
			t.Errorf("child %s polled after parent %s: %v", edge[0], edge[1], order)
		}
	}
}

func TestBuildAndPollFigureTwo(t *testing.T) {
	clk := clock.NewVirtual(t0)
	inst, err := Build(FigureTwo(10), BuildConfig{Mode: gmetad.NLevel, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	inst.PollRound(clk.Now())
	s := inst.Root().Summary()
	if got := s.Hosts(); got != 120 {
		t.Errorf("root sees %d hosts, want 120 (12 clusters × 10)", got)
	}
	// Root report: 2 local clusters full-res, 2 child grids summarized.
	rep, err := inst.Root().Report(query.MustParse("/"))
	if err != nil {
		t.Fatal(err)
	}
	self := rep.Grids[0]
	if len(self.Clusters) != 2 || len(self.Grids) != 2 {
		t.Errorf("root shape: %d clusters, %d grids", len(self.Clusters), len(self.Grids))
	}
	for _, g := range self.Grids {
		if g.Summary == nil {
			t.Errorf("child grid %s not summarized", g.Name)
		}
		if !strings.Contains(g.Authority, g.Name) {
			t.Errorf("authority %q does not identify child %s", g.Authority, g.Name)
		}
	}
	// The ucsd subtree summary covers its own 2 clusters + physics' 2 +
	// math's 2 = 60 hosts.
	for _, g := range self.Grids {
		if g.Name == "ucsd" && g.Summary.Hosts() != 60 {
			t.Errorf("ucsd summary hosts = %d, want 60", g.Summary.Hosts())
		}
	}
}

func TestBuildOneLevelFullDetailAtRoot(t *testing.T) {
	clk := clock.NewVirtual(t0)
	inst, err := Build(FigureTwo(5), BuildConfig{Mode: gmetad.OneLevel, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.PollRound(clk.Now())
	rep, err := inst.Root().Report(query.MustParse("/"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Hosts(); got != 60 {
		t.Errorf("1-level root full-res hosts = %d, want all 60", got)
	}
}

func TestSetClusterSize(t *testing.T) {
	clk := clock.NewVirtual(t0)
	inst, err := Build(FigureTwo(5), BuildConfig{Mode: gmetad.NLevel, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.SetClusterSize(8)
	clk.Advance(15 * time.Second)
	inst.PollRound(clk.Now())
	if got := inst.Root().Summary().Hosts(); got != 96 {
		t.Errorf("after resize: %d hosts, want 96", got)
	}
}
