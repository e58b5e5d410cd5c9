package rrd

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the pool's default shard count. Sixteen independent
// locks keep history fetches from serializing behind poll-loop update
// batches at any realistic core count, while the per-shard map overhead
// stays negligible.
const DefaultShards = 16

// Sample is one metric's value in a host's report: the unit of
// UpdateHost.
type Sample struct {
	Metric string
	Value  float64
}

// hostRow holds one host's series in first-seen order. A host reports
// its metrics in the same order round after round, so the write door
// finds each series by comparing one name at the position the row
// expects, not by a lookup.
type hostRow struct {
	series []rowSeries
}

// rowSeries is one series of a host row; metric is interned.
type rowSeries struct {
	metric string
	db     *Database
}

// find returns the index of metric's series in the row, or -1.
func (r *hostRow) find(metric string) int {
	for i := range r.series {
		if r.series[i].metric == metric {
			return i
		}
	}
	return -1
}

// poolShard is one independently locked slice of the host rows.
type poolShard struct {
	mu      sync.Mutex
	rows    map[hostKey]*hostRow // every row holds at least one series
	updates uint64               // guarded by mu
	errors  uint64               // guarded by mu

	// Lock-wait hints: TryLock succeeds silently on the (overwhelmingly
	// common) uncontended path, so the wall-clock reads below are paid
	// only when an acquisition actually had to wait.
	contended atomic.Uint64
	waitNS    atomic.Int64
}

// lock acquires the shard lock, recording a contention hint when the
// acquisition had to wait.
func (s *poolShard) lock() {
	if s.mu.TryLock() {
		return
	}
	start := time.Now() //lint:allow clock shard-lock wait hints measure real contention even under a virtual clock
	s.mu.Lock()         //lint:allow locks lock() is the shard's acquire helper; every caller unlocks
	s.contended.Add(1)
	s.waitNS.Add(int64(time.Since(start))) //lint:allow clock shard-lock wait hints measure real contention even under a virtual clock
}

// len counts the shard's series. s.mu must be held.
func (s *poolShard) len() int {
	n := 0
	for _, row := range s.rows {
		n += len(row.series)
	}
	return n
}

// each calls f with every series' slash key and database. s.mu must be
// held.
func (s *poolShard) each(f func(key string, db *Database)) {
	for k, row := range s.rows {
		for _, rs := range row.series {
			f(k.seriesKey(rs.metric), rs.db)
		}
	}
}

// Pool manages the databases of one gmetad, one per archived series.
// A series is named by cluster, host and metric ("Meteor",
// "compute-0-0", "load_one"; cluster summaries use the "__summary__"
// pseudo-host), and its slash key "Meteor/compute-0-0/load_one" spells
// the same name for the key-addressed calls.
//
// The index is host-shaped: each host owns one row of its series in
// first-seen order, on the shard its cluster and host names hash to.
// UpdateHost is the one write door: a host's report costs one shard
// lock and one row lookup, and each sample then only compares its name
// with the one the row holds at the same position — the paper's §4
// "too many updates to the file-based databases" burden, paid per host
// instead of per sample. Update and UpdateSeries are one-sample calls
// into the same door.
//
// Pool is safe for concurrent use. The independently locked shards let
// history fetches on the serve path proceed beside the poll loop's
// archive writes. Name components are interned in a shared table (see
// intern.go), and per-shard update counters feed the work accounting
// that stands in for %CPU in the experiments.
type Pool struct {
	spec   Spec
	names  internTable
	shards []*poolShard
}

// NewPool creates a pool whose databases all use spec, with
// DefaultShards lock shards.
func NewPool(spec Spec) *Pool { return NewPoolShards(spec, DefaultShards) }

// NewPoolShards creates a pool with an explicit shard count; n < 1 is
// clamped to 1 (a single-shard pool is the legacy global-lock layout).
func NewPoolShards(spec Spec, n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{spec: spec, shards: make([]*poolShard, n)}
	for i := range p.shards {
		p.shards[i] = &poolShard{rows: make(map[hostKey]*hostRow)}
	}
	return p
}

// shardOf selects the shard owning the row at k.
func (p *Pool) shardOf(k hostKey) *poolShard {
	return p.shards[int(k.hash())%len(p.shards)]
}

// Update folds a sample into the series at key, creating the database
// on first use: a one-sample UpdateHost addressed by slash key.
func (p *Pool) Update(key string, t time.Time, v float64) error {
	k, metric := splitKey(key)
	one := [1]Sample{{Metric: metric, Value: v}}
	return p.updateRow(k, t, one[:])
}

// UpdateSeries folds a sample into one cluster/host/metric series: a
// one-sample UpdateHost.
func (p *Pool) UpdateSeries(cluster, host, metric string, t time.Time, v float64) error {
	one := [1]Sample{{Metric: metric, Value: v}}
	return p.UpdateHost(cluster, host, t, one[:])
}

// UpdateHost folds one host's samples at instant t into its series,
// creating databases on first use. Every sample is offered on its own
// (rejected ones are counted in Stats like any other) and the first
// rejection is returned: ErrPastUpdate when the instant was already
// written, which is routine when two ingests land within one step.
// samples is only read; the caller may reuse it at once.
func (p *Pool) UpdateHost(cluster, host string, t time.Time, samples []Sample) error {
	return p.updateRow(hostKey{cluster: cluster, host: host, depth: 3}, t, samples)
}

func (p *Pool) updateRow(k hostKey, t time.Time, samples []Sample) error {
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	row := s.rows[k]
	if row == nil {
		row = &hostRow{} // entered into rows with its first series
	}
	var first error
	next := 0 // where the row's order expects the next sample
	for i := range samples {
		sm := &samples[i]
		j := next
		if j >= len(row.series) || row.series[j].metric != sm.Metric {
			if j = row.find(sm.Metric); j < 0 {
				db, err := New(p.spec)
				if err != nil {
					if first == nil {
						first = err
					}
					continue
				}
				if len(row.series) == 0 {
					s.rows[hostKey{cluster: p.names.intern(k.cluster), host: p.names.intern(k.host), depth: k.depth}] = row
				}
				j = len(row.series)
				row.series = append(row.series, rowSeries{metric: p.names.intern(sm.Metric), db: db})
			}
		}
		next = j + 1
		if err := row.series[j].db.Update(t, sm.Value); err != nil {
			s.errors++
			if first == nil {
				first = err
			}
			continue
		}
		s.updates++
	}
	return first
}

// install enters a database restored from a snapshot under key,
// reporting false when key already holds one. Restores build a pool
// before anything else can reach it, so no lock is taken.
func (p *Pool) install(key string, db *Database) bool {
	k, metric := splitKey(key)
	k.cluster, k.host = p.names.intern(k.cluster), p.names.intern(k.host)
	s := p.shardOf(k)
	row := s.rows[k]
	if row == nil {
		row = &hostRow{}
		s.rows[k] = row
	}
	if row.find(metric) >= 0 {
		return false
	}
	row.series = append(row.series, rowSeries{metric: p.names.intern(metric), db: db})
	return true
}

// view runs f on the series metric of the row at k under its shard
// lock, reporting whether the series exists.
func (p *Pool) view(k hostKey, metric string, f func(*Database)) bool {
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	row := s.rows[k]
	if row == nil {
		return false
	}
	i := row.find(metric)
	if i < 0 {
		return false
	}
	f(row.series[i].db)
	return true
}

// Fetch queries the series at key; it returns nil for unknown keys.
func (p *Pool) Fetch(key string, cf CF, start, end time.Time) (pts []Point) {
	k, metric := splitKey(key)
	p.view(k, metric, func(db *Database) { pts = db.Fetch(cf, start, end) })
	return pts
}

// FetchRange queries the series at key with query-time consolidation to
// step (see Database.FetchRange); nil for unknown keys.
func (p *Pool) FetchRange(key string, cf CF, start, end time.Time, step time.Duration) (pts []Point) {
	k, metric := splitKey(key)
	p.view(k, metric, func(db *Database) { pts = db.FetchRange(cf, start, end, step) })
	return pts
}

// FetchRangeSeries is FetchRange addressed by name components.
func (p *Pool) FetchRangeSeries(cluster, host, metric string, cf CF, start, end time.Time, step time.Duration) (pts []Point) {
	k := hostKey{cluster: cluster, host: host, depth: 3}
	p.view(k, metric, func(db *Database) { pts = db.FetchRange(cf, start, end, step) })
	return pts
}

// FetchRecent returns the finest-resolution window for key; nil for
// unknown keys.
func (p *Pool) FetchRecent(key string, cf CF) (pts []Point) {
	k, metric := splitKey(key)
	p.view(k, metric, func(db *Database) { pts = db.FetchRecent(cf) })
	return pts
}

// Last returns the most recent stored value for key. ok is false for
// unknown keys and for series that exist but have never stored a valid
// (known) sample — a freshly created database, or one whose every
// consolidated row so far came out unknown, reports (0, false) until a
// real value lands.
func (p *Pool) Last(key string) (v float64, ok bool) {
	k, metric := splitKey(key)
	p.view(k, metric, func(db *Database) {
		if db.known {
			v, ok = db.Last(), true
		}
	})
	return v, ok
}

// HasSeries reports whether a cluster/host/metric series exists, without
// touching its data — the existence probe behind "unknown series" vs
// "known series, empty window" answers.
func (p *Pool) HasSeries(cluster, host, metric string) bool {
	return p.view(hostKey{cluster: cluster, host: host, depth: 3}, metric, func(*Database) {})
}

// SeriesHosts returns the sorted host names that hold a series for
// cluster/metric — the enumeration behind cross-host reductions such as
// topk.
func (p *Pool) SeriesHosts(cluster, metric string) []string {
	var hosts []string
	for _, s := range p.shards {
		s.lock()
		for k, row := range s.rows {
			if k.depth == 3 && k.cluster == cluster && row.find(metric) >= 0 {
				hosts = append(hosts, k.host)
			}
		}
		s.mu.Unlock()
	}
	sort.Strings(hosts)
	return hosts
}

// Len returns the number of series.
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.lock()
		n += s.len()
		s.mu.Unlock()
	}
	return n
}

// Keys returns the sorted series keys.
func (p *Pool) Keys() []string {
	var keys []string
	for _, s := range p.shards {
		s.lock()
		s.each(func(key string, _ *Database) { keys = append(keys, key) })
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Stats reports cumulative successful updates and rejected updates
// across all shards.
func (p *Pool) Stats() (updates, errors uint64) {
	for _, s := range p.shards {
		s.lock()
		updates += s.updates
		errors += s.errors
		s.mu.Unlock()
	}
	return updates, errors
}

// ShardStat describes one shard's load, for the status surfaces.
type ShardStat struct {
	Series    int
	Updates   uint64
	Errors    uint64
	Contended uint64
	LockWait  time.Duration
}

// ShardStats reports per-shard series counts, update counters and
// lock-wait hints.
func (p *Pool) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i, s := range p.shards {
		s.lock()
		out[i] = ShardStat{
			Series:    s.len(),
			Updates:   s.updates,
			Errors:    s.errors,
			Contended: s.contended.Load(),
			LockWait:  time.Duration(s.waitNS.Load()),
		}
		s.mu.Unlock()
	}
	return out
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// InternedNames returns the number of distinct name components the
// shared intern table holds — for a million series over a few hundred
// names, the measure of the deduplication.
func (p *Pool) InternedNames() int { return p.names.len() }

// LockContention sums the shard-lock wait hints: how many acquisitions
// had to wait, and for how long in total.
func (p *Pool) LockContention() (contended uint64, wait time.Duration) {
	for _, s := range p.shards {
		contended += s.contended.Load()
		wait += time.Duration(s.waitNS.Load())
	}
	return contended, wait
}
