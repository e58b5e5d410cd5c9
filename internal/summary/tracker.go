package summary

import (
	"sort"
	"sync"
	"sync/atomic"
)

// rebaseEvery is how many delta publishes a Tracker absorbs before
// re-merging its parts from scratch. Unmerge restores sums only up to
// floating-point rounding; the periodic rebase bounds the accumulated
// drift to what rebaseEvery publishes can introduce.
const rebaseEvery = 64

// Tracker maintains a whole-tree reduction incrementally: one part per
// data source, each tagged with the generation (per-source snapshot
// epoch) it was published at, and a copy-on-write total that is updated
// as a delta when a source publishes — unmerge the old part, merge the
// new — instead of re-merged across every source per query.
//
// Readers call Total without locking; writers serialize on an internal
// mutex. Generation tags make publication races harmless: a publish
// carrying a generation at or below the part's current one is a stale
// straggler and is rejected, so the total never regresses to a
// withdrawn snapshot's contribution.
type Tracker struct {
	mu        sync.Mutex
	parts     map[string]*trackerPart
	total     atomic.Pointer[Summary]
	publishes int
}

type trackerPart struct {
	gen uint64
	sum *Summary
}

// NewTracker returns a Tracker with an empty total.
func NewTracker() *Tracker {
	t := &Tracker{parts: make(map[string]*trackerPart)}
	t.total.Store(New())
	return t
}

// Publish installs source's reduction for generation gen and folds the
// delta into the total. It reports whether the publish took effect; a
// generation at or below the part's current one is rejected as stale.
// The summary is retained by reference and must not be mutated after
// publication. Republishing the same summary value under a newer
// generation (a re-aged snapshot whose reduction is unchanged) only
// advances the tag.
func (t *Tracker) Publish(source string, gen uint64, s *Summary) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.parts[source]
	var old *Summary
	if p != nil {
		if gen <= p.gen {
			return false
		}
		if p.sum == s {
			p.gen = gen
			return true
		}
		old = p.sum
	} else {
		p = &trackerPart{}
		t.parts[source] = p
	}
	p.gen, p.sum = gen, s

	t.publishes++
	if t.publishes >= rebaseEvery {
		t.publishes = 0
		t.rebaseLocked()
		return true
	}
	next := t.total.Load().Clone()
	next.Unmerge(old)
	next.Merge(s)
	t.total.Store(next)
	return true
}

// Total returns the current whole-tree reduction. The returned summary
// is shared and immutable: callers must not modify it. Successive calls
// between publishes return the same value, which is what lets rendered
// responses of one poll epoch share a single reduction.
func (t *Tracker) Total() *Summary {
	return t.total.Load()
}

// rebaseLocked re-merges the total from scratch in deterministic part
// order, discarding accumulated floating-point drift. Caller holds mu.
func (t *Tracker) rebaseLocked() {
	names := make([]string, 0, len(t.parts))
	for name := range t.parts {
		names = append(names, name)
	}
	sort.Strings(names)
	next := New()
	for _, name := range names {
		next.Merge(t.parts[name].sum)
	}
	t.total.Store(next)
}
