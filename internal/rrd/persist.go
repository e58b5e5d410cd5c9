package rrd

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"time"
)

// Persistence: the paper's gmetad keeps its archives in files so
// history survives daemon restarts (it places them on tmpfs only for
// the experiments). SaveTo/LoadPool serialize a whole pool; a database
// restored from a snapshot continues exactly where it stopped, and the
// next Update after a long gap produces the usual unknown slots.
//
// Format evolution rides on gob's field tolerance. Current snapshots
// carry each database's row store as one columnar Slab plus a Known
// flag; archive records carry only cursor state. Legacy snapshots
// instead carry a per-archive Ring and no Known flag — restore accepts
// both, rebuilding the slab from the rings and recomputing Known by
// scanning the finest archive, so existing generational checkpoints
// recover byte-identically.

// persistVersion is bumped when the on-disk layout changes
// incompatibly; the Slab/Known evolution is bidirectionally tolerated
// by gob and keeps version 1.
const persistVersion = 1

type dbSnapshot struct {
	Spec Spec

	Started    bool
	LastUpdate time.Time
	LastRaw    float64
	PDPStart   time.Time
	PDPSum     float64
	PDPKnown   time.Duration
	Updates    uint64

	// Slab is the columnar row store: every archive's ring,
	// concatenated in archive order. Known records whether the finest
	// archive ever stored a valid row. Legacy snapshots have neither
	// and populate per-archive Ring instead.
	Slab  []float64
	Known bool

	Archives []archSnapshot
}

type archSnapshot struct {
	Ring    []float64 // legacy layout only; current snapshots use Slab
	End     time.Time
	Next    int
	Wrapped bool
	Accum   float64
	AccumN  int
	Unknown int
}

type poolSnapshot struct {
	Version int
	Spec    Spec
	DBs     map[string]dbSnapshot
	Updates uint64
	Errors  uint64
}

// snapshot captures the database state.
func (d *Database) snapshot() dbSnapshot {
	s := dbSnapshot{
		Spec:       d.spec,
		Started:    d.started,
		LastUpdate: d.lastUpdate,
		LastRaw:    d.lastRaw,
		PDPStart:   d.pdpStart,
		PDPSum:     d.pdpSum,
		PDPKnown:   d.pdpKnown,
		Updates:    d.updates,
		Slab:       append([]float64(nil), d.slab...),
		Known:      d.known,
	}
	for _, a := range d.archives {
		s.Archives = append(s.Archives, archSnapshot{
			End:     a.end,
			Next:    a.next,
			Wrapped: a.wrapped,
			Accum:   a.accum,
			AccumN:  a.accumN,
			Unknown: a.unknown,
		})
	}
	return s
}

// restore rebuilds a database from a snapshot, current or legacy.
func restore(s dbSnapshot) (*Database, error) {
	d, err := New(s.Spec)
	if err != nil {
		return nil, err
	}
	if len(s.Archives) != len(d.archives) {
		return nil, fmt.Errorf("rrd: snapshot has %d archives, spec declares %d",
			len(s.Archives), len(d.archives))
	}
	d.started = s.Started
	d.lastUpdate = s.LastUpdate
	d.lastRaw = s.LastRaw
	d.pdpStart = s.PDPStart
	d.pdpSum = s.PDPSum
	d.pdpKnown = s.PDPKnown
	d.updates = s.Updates
	if len(s.Slab) > 0 {
		if len(s.Slab) != len(d.slab) {
			return nil, fmt.Errorf("rrd: snapshot slab %d rows, spec declares %d",
				len(s.Slab), len(d.slab))
		}
		copy(d.slab, s.Slab)
	}
	for i, as := range s.Archives {
		a := d.archives[i]
		if len(s.Slab) == 0 {
			// Legacy layout: per-archive rings.
			if len(as.Ring) != len(a.ring) {
				return nil, fmt.Errorf("rrd: archive %d ring %d, spec declares %d",
					i, len(as.Ring), len(a.ring))
			}
			copy(a.ring, as.Ring)
		}
		a.end = as.End
		a.next = as.Next
		a.wrapped = as.Wrapped
		a.accum = as.Accum
		a.accumN = as.AccumN
		a.unknown = as.Unknown
	}
	d.known = s.Known
	if !d.known {
		// Legacy snapshots predate the flag; recover it from the finest
		// archive (unused slots are NaN-initialized, so any valid value
		// means a valid row was stored).
		for _, v := range d.archives[0].ring {
			if !math.IsNaN(v) {
				d.known = true
				break
			}
		}
	}
	return d, nil
}

// snapshotAll captures every database under the shard locks and returns
// the pool-level snapshot, leaving encoding to the caller.
func (p *Pool) snapshotAll() poolSnapshot {
	snap := poolSnapshot{
		Version: persistVersion,
		Spec:    p.spec,
		DBs:     make(map[string]dbSnapshot),
	}
	for _, s := range p.shards {
		s.lock()
		s.each(func(key string, db *Database) { snap.DBs[key] = db.snapshot() })
		snap.Updates += s.updates
		snap.Errors += s.errors
		s.mu.Unlock()
	}
	return snap
}

// SaveTo serializes the pool. Concurrent updates to a shard are blocked
// only while that shard is being snapshotted.
func (p *Pool) SaveTo(w io.Writer) error {
	// Snapshot under the shard locks, encode outside them: gob writes
	// to w, which may be a slow disk or socket, and a stalled writer
	// must not block archive updates.
	return gob.NewEncoder(w).Encode(p.snapshotAll())
}

// LoadPool reconstructs a pool saved with SaveTo.
func LoadPool(r io.Reader) (*Pool, error) {
	var snap poolSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rrd: decode pool: %w", err)
	}
	if snap.Version != persistVersion {
		return nil, fmt.Errorf("rrd: snapshot version %d, want %d", snap.Version, persistVersion)
	}
	p := NewPool(snap.Spec)
	// Cumulative counters are pool-level facts; park them on shard 0
	// (Stats sums across shards).
	p.shards[0].updates = snap.Updates
	p.shards[0].errors = snap.Errors
	for k, ds := range snap.DBs {
		db, err := restore(ds)
		if err != nil {
			return nil, fmt.Errorf("rrd: restore %q: %w", k, err)
		}
		p.install(k, db) // map keys are distinct, so no key repeats
	}
	return p, nil
}
