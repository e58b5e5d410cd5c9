package tree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/gxml"
	"ganglia/internal/query"
	"ganglia/internal/summary"
)

// randomTopology builds a random valid monitoring tree: up to maxNodes
// gmetads in a random parent structure, each with 0-2 clusters of 1-6
// hosts (every leaf gets at least one cluster so it has something to
// monitor).
func randomTopology(rng *rand.Rand, maxNodes int) *Topology {
	n := 1 + rng.Intn(maxNodes)
	topo := &Topology{Root: "g0"}
	for i := 0; i < n; i++ {
		topo.Nodes = append(topo.Nodes, Node{Name: fmt.Sprintf("g%d", i)})
	}
	// Each node i>0 gets a random parent among earlier nodes: always a
	// tree, never a cycle.
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		topo.Nodes[p].Children = append(topo.Nodes[p].Children, topo.Nodes[i].Name)
	}
	cl := 0
	for i := range topo.Nodes {
		want := rng.Intn(3)
		if len(topo.Nodes[i].Children) == 0 && want == 0 {
			want = 1
		}
		for j := 0; j < want; j++ {
			topo.Nodes[i].Clusters = append(topo.Nodes[i].Clusters, ClusterSpec{
				Name:  fmt.Sprintf("c%d", cl),
				Hosts: 1 + rng.Intn(6),
			})
			cl++
		}
	}
	return topo
}

// foldTopology is the oracle for the root's summary at one instant. It
// mirrors the tree: at each node it folds the node's sources (clusters
// and child nodes) in name order; a leaf cluster's reduction comes from
// its emulator's report for that instant as it reads on the wire, hosts
// in name order; a child node's comes from the recursive fold.
func foldTopology(inst *Instance, name string, now time.Time) (*summary.Summary, error) {
	node := inst.Topo.node(name)
	parts := map[string]*summary.Summary{}
	for _, cs := range node.Clusters {
		var buf bytes.Buffer
		if err := gxml.WriteReport(&buf, inst.Pseudos[cs.Name].Report(now)); err != nil {
			return nil, err
		}
		rep, err := gxml.Parse(&buf)
		if err != nil {
			return nil, err
		}
		c := rep.Clusters[0]
		slices.SortFunc(c.Hosts, func(a, b *gxml.Host) int { return strings.Compare(a.Name, b.Name) })
		parts[cs.Name] = c.Summarize()
	}
	for _, child := range node.Children {
		s, err := foldTopology(inst, child, now)
		if err != nil {
			return nil, err
		}
		parts[child] = s
	}
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	total := summary.New()
	for _, n := range names {
		total.Merge(parts[n])
	}
	return total, nil
}

// TestQuickHostConservation is the core invariant of the summary
// hierarchy: for any tree shape, the root's merged summary accounts for
// exactly every host in the forest — additive reductions neither lose
// nor double-count hosts as they compose up arbitrary numbers of
// levels. After several rounds, every root SUM and NUM must equal, bit
// for bit, the fold of the leaves' reports for the last instant: the
// root summary is a function of the current data, not of the rounds
// before it.
func TestQuickHostConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomTopology(rng, 7)
		if err := topo.Validate(); err != nil {
			t.Logf("seed %d: invalid topology: %v", seed, err)
			return false
		}
		clk := clock.NewVirtual(time.Unix(1_057_000_000, 0))
		inst, err := Build(topo, BuildConfig{Mode: gmetad.NLevel, Clock: clk})
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		defer inst.Close()
		inst.PollRound(clk.Now())
		for round := 1; round < 5; round++ {
			inst.PollRound(clk.Advance(15 * time.Second))
		}
		root := inst.Root().Summary()
		if got, want := int(root.Hosts()), topo.HostCount(); got != want {
			t.Logf("seed %d: root sees %d hosts, topology has %d", seed, got, want)
			return false
		}
		want, err := foldTopology(inst, topo.Root, clk.Now())
		if err != nil {
			t.Logf("seed %d: oracle: %v", seed, err)
			return false
		}
		if root.HostsUp != want.HostsUp || root.HostsDown != want.HostsDown ||
			len(root.Metrics) != len(want.Metrics) {
			t.Logf("seed %d: root has %d/%d hosts and %d metrics, the fold %d/%d and %d",
				seed, root.HostsUp, root.HostsDown, len(root.Metrics), want.HostsUp, want.HostsDown, len(want.Metrics))
			return false
		}
		for name, wm := range want.Metrics {
			gm := root.Metrics[name]
			if gm == nil || gm.Num != wm.Num || math.Float64bits(gm.Sum) != math.Float64bits(wm.Sum) {
				t.Logf("seed %d: root %s = %+v, the fold has SUM %v NUM %d", seed, name, gm, wm.Sum, wm.Num)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickHostConservationOneLevel is the same invariant for the
// legacy design, where the root holds everything at full resolution.
func TestQuickHostConservationOneLevel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomTopology(rng, 5)
		clk := clock.NewVirtual(time.Unix(1_057_000_000, 0))
		inst, err := Build(topo, BuildConfig{Mode: gmetad.OneLevel, Clock: clk})
		if err != nil {
			return false
		}
		defer inst.Close()
		inst.PollRound(clk.Now())
		rep, err := inst.Root().Report(mustRootQuery())
		if err != nil {
			return false
		}
		return rep.Hosts() == topo.HostCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDeepChainTree(t *testing.T) {
	// A five-level chain: summaries must survive repeated upward
	// composition without attenuation.
	topo := &Topology{Root: "g0"}
	for i := 0; i < 5; i++ {
		n := Node{Name: fmt.Sprintf("g%d", i)}
		if i < 4 {
			n.Children = []string{fmt.Sprintf("g%d", i+1)}
		}
		n.Clusters = []ClusterSpec{{Name: fmt.Sprintf("c%d", i), Hosts: 3}}
		topo.Nodes = append(topo.Nodes, n)
	}
	clk := clock.NewVirtual(time.Unix(1_057_000_000, 0))
	inst, err := Build(topo, BuildConfig{Mode: gmetad.NLevel, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	inst.PollRound(clk.Now())
	if got := inst.Root().Summary().Hosts(); got != 15 {
		t.Errorf("5-level chain: root sees %d hosts, want 15", got)
	}
	// The root's child grid carries the whole chain below it.
	rep, err := inst.Root().Report(mustRootQuery())
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.Grids[0].Grids[0]; g.Summary.Hosts() != 12 {
		t.Errorf("g1 subtree summary = %d hosts, want 12", g.Summary.Hosts())
	}
}

func mustRootQuery() *query.Query { return query.MustParse("/") }
