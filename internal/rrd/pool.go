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

// poolShard is one independently locked slice of the key space.
type poolShard struct {
	mu      sync.Mutex
	dbs     map[seriesKey]*Database
	updates uint64 // guarded by mu
	errors  uint64 // guarded by mu

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

// Pool manages the databases of one gmetad: one per archived series,
// keyed by a slash path such as "Meteor/compute-0-0/load_one" for host
// metrics or "Meteor/__summary__/load_one" for cluster summaries.
//
// Pool is safe for concurrent use. The key space is sharded by hash
// across independently locked shards, so history fetches on the serve
// path stop contending with the poll loop's archive updates — the
// paper's §4 "too many updates to the file-based databases" burden,
// isolated per shard instead of behind one global lock. Name components
// are interned in a shared table (see intern.go), and per-shard update
// counters feed the work accounting that stands in for %CPU in the
// experiments.
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
		p.shards[i] = &poolShard{dbs: make(map[seriesKey]*Database)}
	}
	return p
}

// keyOf interns a slash key's components into a series key.
func (p *Pool) keyOf(key string) seriesKey {
	c, h, m, d := splitKey(key)
	c, h, m = p.names.intern3(c, h, m)
	return seriesKey{cluster: c, host: h, metric: m, depth: d}
}

// shardOf selects the shard owning k.
func (p *Pool) shardOf(k seriesKey) *poolShard {
	return p.shards[int(k.hash())%len(p.shards)]
}

// Update folds a sample into the series at key, creating the database
// on first use.
func (p *Pool) Update(key string, t time.Time, v float64) error {
	return p.update(p.keyOf(key), t, v)
}

// UpdateSeries is Update addressed by name components, skipping the
// joined-key allocation on the poll hot path.
func (p *Pool) UpdateSeries(cluster, host, metric string, t time.Time, v float64) error {
	c, h, m := p.names.intern3(cluster, host, metric)
	return p.update(seriesKey{cluster: c, host: h, metric: m, depth: 3}, t, v)
}

func (p *Pool) update(k seriesKey, t time.Time, v float64) error {
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil {
		var err error
		db, err = New(p.spec)
		if err != nil {
			return err
		}
		s.dbs[k] = db
	}
	if err := db.Update(t, v); err != nil {
		s.errors++
		return err
	}
	s.updates++
	return nil
}

// Fetch queries the series at key; it returns nil for unknown keys.
func (p *Pool) Fetch(key string, cf CF, start, end time.Time) []Point {
	k := p.keyOf(key)
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil {
		return nil
	}
	return db.Fetch(cf, start, end)
}

// FetchRange queries the series at key with query-time consolidation to
// step (see Database.FetchRange); nil for unknown keys.
func (p *Pool) FetchRange(key string, cf CF, start, end time.Time, step time.Duration) []Point {
	k := p.keyOf(key)
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil {
		return nil
	}
	return db.FetchRange(cf, start, end, step)
}

// FetchRangeSeries is FetchRange addressed by name components.
func (p *Pool) FetchRangeSeries(cluster, host, metric string, cf CF, start, end time.Time, step time.Duration) []Point {
	c, h, m := p.names.intern3(cluster, host, metric)
	k := seriesKey{cluster: c, host: h, metric: m, depth: 3}
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil {
		return nil
	}
	return db.FetchRange(cf, start, end, step)
}

// FetchRecent returns the finest-resolution window for key; nil for
// unknown keys.
func (p *Pool) FetchRecent(key string, cf CF) []Point {
	k := p.keyOf(key)
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil {
		return nil
	}
	return db.FetchRecent(cf)
}

// Last returns the most recent stored value for key. ok is false for
// unknown keys and for series that exist but have never stored a valid
// (known) sample — a freshly created database, or one whose every
// consolidated row so far came out unknown, reports (0, false) until a
// real value lands.
func (p *Pool) Last(key string) (float64, bool) {
	k := p.keyOf(key)
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	db := s.dbs[k]
	if db == nil || !db.known {
		return 0, false
	}
	return db.Last(), true
}

// HasSeries reports whether a cluster/host/metric series exists, without
// touching its data — the existence probe behind "unknown series" vs
// "known series, empty window" answers.
func (p *Pool) HasSeries(cluster, host, metric string) bool {
	c, h, m := p.names.intern3(cluster, host, metric)
	k := seriesKey{cluster: c, host: h, metric: m, depth: 3}
	s := p.shardOf(k)
	s.lock()
	defer s.mu.Unlock()
	_, ok := s.dbs[k]
	return ok
}

// SeriesHosts returns the sorted host names that hold a series for
// cluster/metric — the enumeration behind cross-host reductions such as
// topk. Interning makes the scan's comparisons cheap: equal names share
// a backing pointer.
func (p *Pool) SeriesHosts(cluster, metric string) []string {
	var hosts []string
	for _, s := range p.shards {
		s.lock()
		for k := range s.dbs {
			if k.depth == 3 && k.cluster == cluster && k.metric == metric {
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
		n += len(s.dbs)
		s.mu.Unlock()
	}
	return n
}

// Keys returns the sorted series keys.
func (p *Pool) Keys() []string {
	var keys []string
	for _, s := range p.shards {
		s.lock()
		for k := range s.dbs {
			keys = append(keys, k.String())
		}
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
			Series:    len(s.dbs),
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
