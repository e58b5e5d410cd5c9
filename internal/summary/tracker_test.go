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

func summariesClose(t *testing.T, got, want *Summary) {
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
		if math.Abs(gm.Sum-wm.Sum) > 1e-6*(1+math.Abs(wm.Sum)) {
			t.Fatalf("metric %s sum: got %v want %v", name, gm.Sum, wm.Sum)
		}
	}
}

func TestTrackerMatchesScratchMerge(t *testing.T) {
	tr := NewTracker()
	live := map[string]*Summary{}
	gen := map[string]uint64{}

	// A deterministic publish schedule across three sources with
	// churning values and metric sets.
	for round := 1; round <= 30; round++ {
		src := fmt.Sprintf("src-%d", round%3)
		names := []string{"cpu_num", "load_one"}
		if round%4 == 0 {
			names = append(names, "mem_free") // metric appears and disappears
		}
		s := mkSummary(2+round%5, float64(round), names...)
		gen[src]++
		if !tr.Publish(src, gen[src], s) {
			t.Fatalf("round %d: publish rejected", round)
		}
		live[src] = s
		summariesClose(t, tr.Total(), scratchTotal(live))
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
	summariesClose(t, tr.Total(), fresh)
}

func TestTrackerSamePointerRepublishAdvancesGeneration(t *testing.T) {
	tr := NewTracker()
	s := mkSummary(3, 1, "cpu_num")
	if !tr.Publish("a", 1, s) {
		t.Fatal("publish rejected")
	}
	before := tr.Total()
	// A re-aged snapshot republishes the identical reduction under a
	// newer generation: the tag advances, the total is untouched.
	if !tr.Publish("a", 2, s) {
		t.Fatal("same-pointer republish rejected")
	}
	if tr.Total() != before {
		t.Error("same-pointer republish rebuilt the total")
	}
	// And the advanced tag keeps guarding against stragglers.
	if tr.Publish("a", 2, mkSummary(8, 8, "cpu_num")) {
		t.Error("publish at the advanced generation accepted")
	}
}

func TestTrackerRebaseBoundsDrift(t *testing.T) {
	tr := NewTracker()
	live := map[string]*Summary{}
	// Far more publishes than rebaseEvery, with values chosen to
	// accumulate floating-point residue under naive unmerge.
	for i := 1; i <= 10*rebaseEvery; i++ {
		src := fmt.Sprintf("src-%d", i%7)
		s := mkSummary(3, 0.1*float64(i), "load_one")
		tr.Publish(src, uint64(i), s)
		live[src] = s
	}
	got, _ := tr.Total().Sum("load_one")
	want, _ := scratchTotal(live).Sum("load_one")
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("drift after %d publishes: got %v want %v", 10*rebaseEvery, got, want)
	}
}

func TestTrackerTotalSharedUntilNextPublish(t *testing.T) {
	tr := NewTracker()
	tr.Publish("a", 1, mkSummary(2, 1, "cpu_num"))
	t1, t2 := tr.Total(), tr.Total()
	if t1 != t2 {
		t.Error("totals between publishes are not shared")
	}
	tr.Publish("a", 2, mkSummary(2, 2, "cpu_num"))
	if tr.Total() == t1 {
		t.Error("publish did not install a new total")
	}
	// The old total must be unchanged: readers hold it lock-free.
	if sum, _ := t1.Sum("cpu_num"); sum != 2 {
		t.Errorf("withdrawn total mutated: cpu_num sum = %v", sum)
	}
}
