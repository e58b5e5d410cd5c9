package summary

import (
	"sort"
	"sync"
)

// Tracker holds one reduction per data source, each tagged with the
// generation (per-source snapshot epoch) it was published at, and folds
// them into a whole-tree total when asked. The fold takes the parts in
// source-name order, so the total is a function of the current parts
// alone, whatever order they were published in.
//
// Generation tags make publication races harmless: a publish carrying a
// generation at or below the part's current one is a stale straggler
// and is rejected, so the total never regresses to a withdrawn
// snapshot's contribution.
type Tracker struct {
	mu    sync.Mutex
	parts map[string]trackerPart
}

type trackerPart struct {
	gen uint64
	sum *Summary
}

// NewTracker returns a Tracker with no parts.
func NewTracker() *Tracker {
	return &Tracker{parts: make(map[string]trackerPart)}
}

// Publish installs source's reduction for generation gen. It reports
// whether the publish took effect; a generation at or below the part's
// current one is rejected as stale. The summary is retained by
// reference and must not be mutated after publication.
func (t *Tracker) Publish(source string, gen uint64, s *Summary) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.parts[source]; ok && gen <= p.gen {
		return false
	}
	t.parts[source] = trackerPart{gen: gen, sum: s}
	return true
}

// Total folds the current parts in source-name order into a new
// summary that belongs to the caller.
func (t *Tracker) Total() *Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.parts))
	for name := range t.parts {
		names = append(names, name)
	}
	sort.Strings(names)
	total := New()
	for _, name := range names {
		total.Merge(t.parts[name].sum)
	}
	return total
}
