package summary

import (
	"fmt"
	"math"
	"testing"

	"ganglia/internal/metric"
)

// mkSummary builds a reduction of n hosts each reporting val for every
// named metric.
func mkSummary(n int, val float64, names ...string) *Summary {
	s := New()
	for i := 0; i < n; i++ {
		s.AddHost(true)
		for _, name := range names {
			s.AddMetric(metric.Metric{
				Name: name,
				Val:  metric.NewDouble(val),
			})
		}
	}
	return s
}

// scratchTotal re-merges parts from scratch, the behavior the Tracker
// must match.
func scratchTotal(parts map[string]*Summary) *Summary {
	total := New()
	for _, name := range sortedKeys(parts) {
		total.Merge(parts[name])
	}
	return total
}

func sortedKeys(m map[string]*Summary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// summariesEqual fails unless got and want agree bit for bit: a fold
// in a fixed order has no rounding slack to forgive.
func summariesEqual(t *testing.T, got, want *Summary) {
	t.Helper()
	if got.HostsUp != want.HostsUp || got.HostsDown != want.HostsDown {
		t.Fatalf("hosts: got %d/%d want %d/%d", got.HostsUp, got.HostsDown, want.HostsUp, want.HostsDown)
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("metric count: got %d want %d (got %v)", len(got.Metrics), len(want.Metrics), got.Names())
	}
	for name, wm := range want.Metrics {
		gm := got.Metrics[name]
		if gm == nil {
			t.Fatalf("metric %s missing", name)
		}
		if gm.Num != wm.Num {
			t.Fatalf("metric %s num: got %d want %d", name, gm.Num, wm.Num)
		}
		if math.Float64bits(gm.Sum) != math.Float64bits(wm.Sum) || math.Float64bits(gm.SumSq) != math.Float64bits(wm.SumSq) {
			t.Fatalf("metric %s sum/sumsq: got %v/%v want %v/%v", name, gm.Sum, gm.SumSq, wm.Sum, wm.SumSq)
		}
	}
}

func TestTrackerMatchesScratchMerge(t *testing.T) {
	tr := NewTracker()
	live := map[string]*Summary{}
	gen := map[string]uint64{}

	// A deterministic publish schedule across three sources with
	// churning fractional values (which an unmerge would not restore
	// exactly) and metric sets.
	for round := 1; round <= 30; round++ {
		src := fmt.Sprintf("src-%d", round%3)
		names := []string{"cpu_num", "load_one"}
		if round%4 == 0 {
			names = append(names, "mem_free") // metric appears and disappears
		}
		s := mkSummary(2+round%5, 0.1*float64(round), names...)
		gen[src]++
		if !tr.Publish(src, gen[src], s) {
			t.Fatalf("round %d: publish rejected", round)
		}
		live[src] = s
		summariesEqual(t, tr.Total(), scratchTotal(live))
	}
}

func TestTrackerStaleGenerationRejected(t *testing.T) {
	tr := NewTracker()
	fresh := mkSummary(4, 2, "cpu_num")
	if !tr.Publish("a", 5, fresh) {
		t.Fatal("initial publish rejected")
	}
	stale := mkSummary(9, 9, "cpu_num")
	if tr.Publish("a", 5, stale) {
		t.Error("same-generation publish accepted")
	}
	if tr.Publish("a", 3, stale) {
		t.Error("older-generation publish accepted")
	}
	summariesEqual(t, tr.Total(), fresh)
}
