package tree

import (
	"fmt"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gmetad"
	"ganglia/internal/pseudo"
	"ganglia/internal/rrd"
	"ganglia/internal/transport"
)

// BuildConfig controls tree instantiation.
type BuildConfig struct {
	// Mode selects the gmetad design for every node.
	Mode gmetad.Mode
	// Archive enables round-robin histories on every gmetad.
	Archive bool
	// ArchiveSpec overrides the archive layout (zero value =
	// rrd.DefaultSpec). The experiment harness uses a compact layout.
	ArchiveSpec rrd.Spec
	// Clock drives all daemons; required (use a Virtual clock for
	// deterministic rounds).
	Clock clock.Clock
	// SeedBase perturbs the pseudo-gmond value streams.
	SeedBase int64
	// Network, if nil, a fresh in-memory network is created.
	Network *transport.InMemNetwork
}

// Instance is a live in-process monitoring tree.
type Instance struct {
	Topo    *Topology
	Net     *transport.InMemNetwork
	Gmetads map[string]*gmetad.Gmetad
	Pseudos map[string]*pseudo.Gmond

	// pollOrder is leaf-first, so one PollRound moves fresh leaf data
	// all the way to the root.
	pollOrder []string
}

// clusterAddr and queryAddr define the in-memory address plan.
func clusterAddr(name string) string { return "cluster-" + name + ":8649" }

// QueryAddr returns the in-memory address of a gmetad's interactive
// query port.
func QueryAddr(node string) string { return "gmetad-" + node + ":8652" }

// Authority returns the authority URL assigned to a node.
func Authority(node string) string { return "http://" + node + ".example/ganglia/" }

// Build instantiates the topology: one pseudo-gmond per leaf cluster,
// one gmetad per node, trust edges realized as data sources, all wired
// over an in-memory network.
func Build(topo *Topology, cfg BuildConfig) (*Instance, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("tree: nil clock")
	}
	net := cfg.Network
	if net == nil {
		net = transport.NewInMemNetwork()
	}
	inst := &Instance{
		Topo:      topo,
		Net:       net,
		Gmetads:   make(map[string]*gmetad.Gmetad),
		Pseudos:   make(map[string]*pseudo.Gmond),
		pollOrder: topo.LeafFirst(),
	}

	seed := cfg.SeedBase
	for i := range topo.Nodes {
		node := &topo.Nodes[i]
		var sources []gmetad.DataSource
		for _, cs := range node.Clusters {
			seed++
			p := pseudo.New(cs.Name, cs.Hosts, seed, cfg.Clock)
			l, err := net.Listen(clusterAddr(cs.Name))
			if err != nil {
				inst.Close()
				return nil, fmt.Errorf("tree: listen %s: %w", cs.Name, err)
			}
			go p.Serve(l)
			inst.Pseudos[cs.Name] = p
			sources = append(sources, gmetad.DataSource{
				Name: cs.Name, Kind: gmetad.SourceGmond,
				Addrs: []string{clusterAddr(cs.Name)},
			})
		}
		for _, child := range node.Children {
			sources = append(sources, gmetad.DataSource{
				Name: child, Kind: gmetad.SourceGmetad,
				Addrs: []string{QueryAddr(child)},
			})
		}
		g, err := gmetad.New(gmetad.Config{
			GridName:    node.Name,
			Authority:   Authority(node.Name),
			Network:     net,
			Clock:       cfg.Clock,
			Sources:     sources,
			Mode:        cfg.Mode,
			Archive:     cfg.Archive,
			ArchiveSpec: cfg.ArchiveSpec,
		})
		if err != nil {
			inst.Close()
			return nil, fmt.Errorf("tree: gmetad %s: %w", node.Name, err)
		}
		l, err := net.Listen(QueryAddr(node.Name))
		if err != nil {
			inst.Close()
			return nil, fmt.Errorf("tree: listen %s: %w", node.Name, err)
		}
		go g.ServeQuery(l)
		inst.Gmetads[node.Name] = g
	}
	return inst, nil
}

// PollRound advances the whole tree by one polling round at time now,
// leaf-first.
func (inst *Instance) PollRound(now time.Time) {
	for _, name := range inst.pollOrder {
		inst.Gmetads[name].PollOnce(now)
	}
}

// Root returns the root gmetad.
func (inst *Instance) Root() *gmetad.Gmetad {
	return inst.Gmetads[inst.Topo.Root]
}

// SetClusterSize resizes every pseudo cluster — the Fig 6 sweep.
func (inst *Instance) SetClusterSize(hosts int) {
	for _, p := range inst.Pseudos {
		p.SetHosts(hosts)
	}
}

// Close shuts down every daemon and emulator.
func (inst *Instance) Close() {
	for _, g := range inst.Gmetads {
		g.Close()
	}
	for _, p := range inst.Pseudos {
		p.Close()
	}
}
