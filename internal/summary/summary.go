// Package summary implements the additive reductions at the heart of
// the paper's N-level design (§2.2).
//
// A cluster or grid summary "looks exactly like the data for a single
// host except each metric value represents an additive reduction. This
// reduction is performed across a known set of nodes, and the summary
// explicitly records the set size. In this way a summary contains
// enough information to determine a metric's sum and mean."
//
// Summaries compose: the summary of a grid is the merge of the
// summaries of its children, which is what bounds the data any node
// sends upstream at O(m) — the size of a single host's report —
// independent of how many clusters live below it.
package summary

import (
	"math"
	"sort"

	"ganglia/internal/metric"
)

// Metric is one additive reduction: the sum of a named metric across
// Num hosts. Only numeric metrics are summarized; string metrics are
// visible only in full-resolution cluster views.
//
// SumSq extends the paper's design: it notes that under plain SUM/NUM
// reductions "statistics such as standard deviation and median are not
// supported" — but a sum of squares is just as additive as a sum, so
// carrying it restores the standard deviation at every level of the
// tree for the cost of one more number per metric.
type Metric struct {
	Name  string
	Sum   float64
	SumSq float64
	Num   uint32
	Type  metric.Type
	Units string
}

// Mean returns Sum/Num, or 0 for an empty reduction.
func (m *Metric) Mean() float64 {
	if m.Num == 0 {
		return 0
	}
	return m.Sum / float64(m.Num)
}

// Stddev returns the population standard deviation of the reduced
// values, or 0 for reductions of fewer than two values (and for
// summaries merged from peers that did not carry SUMSQ).
func (m *Metric) Stddev() float64 {
	if m.Num < 2 || m.SumSq == 0 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq/float64(m.Num) - mean*mean
	if v <= 0 {
		return 0 // rounding can push an all-equal set slightly negative
	}
	return math.Sqrt(v)
}

// Summary is the reduction of a set of hosts: how many are up and down,
// and the per-metric additive reductions over the up hosts.
type Summary struct {
	HostsUp   uint32
	HostsDown uint32
	Metrics   map[string]*Metric
}

// New returns an empty Summary.
func New() *Summary {
	return &Summary{Metrics: make(map[string]*Metric)}
}

// AddHost counts one host as up or down. Metrics of down hosts are not
// added: the set size NUM must describe the hosts actually contributing
// to SUM, or the derived mean is wrong.
func (s *Summary) AddHost(up bool) {
	if up {
		s.HostsUp++
	} else {
		s.HostsDown++
	}
}

// AddMetric folds one host metric into the reduction. Non-numeric
// metrics are ignored, matching the paper's observation that "only
// numeric metrics can be reliably summarized".
func (s *Summary) AddMetric(m metric.Metric) {
	v, ok := m.Val.Float64()
	if !ok {
		return
	}
	sm := s.Metrics[m.Name]
	if sm == nil {
		sm = &Metric{Name: m.Name, Type: m.Val.Type(), Units: m.Units}
		s.Metrics[m.Name] = sm
	}
	sm.Sum += v
	sm.SumSq += v * v
	sm.Num++
}

// AddReduced folds an already-reduced metric (e.g. from a child grid's
// summary report) into this reduction.
func (s *Summary) AddReduced(m Metric) {
	sm := s.Metrics[m.Name]
	if sm == nil {
		sm = &Metric{Name: m.Name, Type: m.Type, Units: m.Units}
		s.Metrics[m.Name] = sm
	}
	sm.Sum += m.Sum
	sm.SumSq += m.SumSq
	sm.Num += m.Num
}

// Merge folds another summary into this one. Merging is the grid-level
// composition step: a gmetad's upstream report is the merge of its
// local cluster summaries and its children's grid summaries.
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	s.HostsUp += o.HostsUp
	s.HostsDown += o.HostsDown
	for _, m := range o.Metrics {
		s.AddReduced(*m)
	}
}

// Clone returns a deep copy, used to publish an immutable snapshot to
// the query engine while the summarizer keeps mutating its working set.
func (s *Summary) Clone() *Summary {
	c := &Summary{
		HostsUp:   s.HostsUp,
		HostsDown: s.HostsDown,
		Metrics:   make(map[string]*Metric, len(s.Metrics)),
	}
	for k, v := range s.Metrics {
		m := *v
		c.Metrics[k] = &m
	}
	return c
}

// Hosts returns the total number of hosts described by the summary.
func (s *Summary) Hosts() uint32 { return s.HostsUp + s.HostsDown }

// Names returns the reduced metric names in sorted order, for
// deterministic serialization.
func (s *Summary) Names() []string {
	names := make([]string, 0, len(s.Metrics))
	for n := range s.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Mean returns the mean of a named metric, if present.
func (s *Summary) Mean(name string) (float64, bool) {
	m, ok := s.Metrics[name]
	if !ok {
		return 0, false
	}
	return m.Mean(), true
}

// Sum returns the sum of a named metric, if present.
func (s *Summary) Sum(name string) (float64, bool) {
	m, ok := s.Metrics[name]
	if !ok {
		return 0, false
	}
	return m.Sum, true
}
