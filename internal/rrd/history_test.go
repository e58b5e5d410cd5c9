package rrd

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// tAligned is a time origin aligned to every step used here (15s, 60s,
// 600s), so bucket grids in the tests are predictable.
var tAligned = time.Unix(999_999_000, 0)

// multiCFSpec holds one finest archive per consolidation function plus
// a coarser Average rollup, so range queries can exercise every CF and
// the multi-resolution selection.
func multiCFSpec() Spec {
	return Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []ArchiveSpec{
			{Step: 15 * time.Second, Rows: 32, CF: Average},
			{Step: 15 * time.Second, Rows: 32, CF: Min},
			{Step: 15 * time.Second, Rows: 32, CF: Max},
			{Step: 15 * time.Second, Rows: 32, CF: Last},
			{Step: 60 * time.Second, Rows: 64, CF: Average},
		},
	}
}

// fillSeq feeds values[i] at tAligned+(i+1)*15s; with a gauge source each
// update closes the PDP carrying exactly that value.
func fillSeq(t *testing.T, d *Database, values []float64) {
	t.Helper()
	if err := d.Update(tAligned, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if err := d.Update(tAligned.Add(time.Duration(i+1)*15*time.Second), v); err != nil {
			t.Fatal(err)
		}
	}
}

// --- Pool.Last regression: never-valid series report (0, false) ---

func TestPoolLastNeverValid(t *testing.T) {
	p := NewPool(multiCFSpec())
	// One update creates the database but cannot have emitted a row yet:
	// the series exists while no valid value has ever been stored.
	if err := p.Update("c/h/m", tAligned, 5); err != nil {
		t.Fatal(err)
	}
	if !p.HasSeries("c", "h", "m") {
		t.Fatal("series not created")
	}
	if v, ok := p.Last("c/h/m"); ok {
		t.Errorf("Last on never-valid series = (%v, true), want (0, false)", v)
	}
	// A second update closes the first PDP; now a real value has landed.
	if err := p.Update("c/h/m", tAligned.Add(15*time.Second), 5); err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Last("c/h/m"); !ok || v != 5 {
		t.Errorf("Last after valid row = (%v, %v), want (5, true)", v, ok)
	}
}

func TestPoolLastAllUnknownSeries(t *testing.T) {
	p := NewPool(multiCFSpec())
	// A series fed only NaN samples emits rows, but every one is
	// unknown; Last must keep reporting (0, false).
	for i := 0; i < 6; i++ {
		_ = p.Update("c/h/nan", tAligned.Add(time.Duration(i)*15*time.Second), math.NaN())
	}
	if v, ok := p.Last("c/h/nan"); ok {
		t.Errorf("Last on all-unknown series = (%v, true), want (0, false)", v)
	}
	if pts := p.FetchRecent("c/h/nan", Average); len(pts) == 0 {
		t.Error("all-unknown series stored no rows; the test exercises nothing")
	}
	// The first real value flips it.
	if err := p.Update("c/h/nan", tAligned.Add(8*15*time.Second), 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Update("c/h/nan", tAligned.Add(9*15*time.Second), 7); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Last("c/h/nan"); !ok {
		t.Error("Last still false after a valid row landed")
	}
}

// --- FetchRange: query-time consolidation edge cases ---

func TestFetchRangeDefaultsMatchFetchRecent(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, d, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	for _, cf := range []CF{Average, Min, Max, Last} {
		recent := d.FetchRecent(cf)
		ranged := d.FetchRange(cf, time.Time{}, time.Time{}, 0)
		if !reflect.DeepEqual(recent, ranged) {
			t.Errorf("%v: FetchRange(zero, zero, 0) != FetchRecent:\n%v\n%v", cf, ranged, recent)
		}
	}
}

func TestFetchRangeStartAfterEnd(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, d, []float64{1, 2, 3, 4})
	if pts := d.FetchRange(Average, tAligned.Add(time.Hour), tAligned, 0); pts != nil {
		t.Errorf("inverted range returned %d points, want none", len(pts))
	}
}

func TestFetchRangeOutsideRetention(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(t, d, []float64{1, 2, 3, 4})
	// A window entirely before the first stored row holds no rows: the
	// answer is no points, not a run of NaN buckets.
	pts := d.FetchRange(Average, tAligned.Add(-2*time.Hour), tAligned.Add(-time.Hour), 30*time.Second)
	if len(pts) != 0 {
		t.Errorf("empty window returned %d points", len(pts))
	}
	// An empty database answers the same way even for the default range.
	empty, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	if pts := empty.FetchRange(Average, time.Time{}, time.Time{}, 0); len(pts) != 0 {
		t.Errorf("empty database returned %d points", len(pts))
	}
}

func TestFetchRangeStepCoarserThanRetention(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Rows at tAligned+15s..+120s all fall in the single 600s grid
	// bucket ending at tAligned+600s.
	fillSeq(t, d, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	want := map[CF]float64{Average: 4.5, Min: 1, Max: 8, Last: 8}
	for cf, wv := range want {
		pts := d.FetchRange(cf, time.Time{}, time.Time{}, 600*time.Second)
		if len(pts) != 1 {
			t.Fatalf("%v: got %d buckets, want 1 (%v)", cf, len(pts), pts)
		}
		if pts[0].Value != wv {
			t.Errorf("%v: bucket value %v, want %v", cf, pts[0].Value, wv)
		}
		if !pts[0].Time.Equal(tAligned.Add(600 * time.Second)) {
			t.Errorf("%v: bucket end %v, want %v", cf, pts[0].Time, tAligned.Add(600*time.Second))
		}
	}
}

func TestFetchRangeAllUnknownWindow(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Known data, then a silence far past the heartbeat, then known
	// data again: the middle rows are unknown.
	fillSeq(t, d, []float64{1, 2, 3, 4})
	gapEnd := tAligned.Add(4*15*time.Second + 10*time.Minute)
	if err := d.Update(gapEnd, 9); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(gapEnd.Add(15*time.Second), 9); err != nil {
		t.Fatal(err)
	}
	// Consolidate just the unknown stretch: every bucket must come back
	// as an explicit NaN point — "unknown", not silence.
	start := tAligned.Add(5 * 15 * time.Second)
	end := gapEnd.Add(-15 * time.Second)
	pts := d.FetchRange(Average, start, end, 60*time.Second)
	if len(pts) == 0 {
		t.Fatal("unknown stretch returned no points")
	}
	for _, p := range pts {
		if !math.IsNaN(p.Value) {
			t.Errorf("point %v in all-unknown window = %v, want NaN", p.Time, p.Value)
		}
	}
	// The same holds for Min/Max/Last consolidation over the window.
	for _, cf := range []CF{Min, Max, Last} {
		for _, p := range d.FetchRange(cf, start, end, 60*time.Second) {
			if !math.IsNaN(p.Value) {
				t.Errorf("%v point %v in all-unknown window = %v, want NaN", cf, p.Time, p.Value)
			}
		}
	}
}

func TestFetchRangeReconsolidatesBuckets(t *testing.T) {
	d, err := New(multiCFSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 8 rows, 60s buckets: rows land in buckets of 4 (the first bucket
	// ends at tAligned+60s and holds rows at +15,+30,+45,+60).
	fillSeq(t, d, []float64{2, 4, 6, 8, 1, 3, 5, 7})
	pts := d.FetchRange(Average, time.Time{}, time.Time{}, 60*time.Second)
	if len(pts) != 2 {
		t.Fatalf("buckets = %d, want 2 (%v)", len(pts), pts)
	}
	if pts[0].Value != 5 || pts[1].Value != 4 {
		t.Errorf("averages = %v, %v, want 5, 4", pts[0].Value, pts[1].Value)
	}
	if got := d.FetchRange(Max, time.Time{}, time.Time{}, 60*time.Second); got[0].Value != 8 || got[1].Value != 7 {
		t.Errorf("maxes = %v, %v, want 8, 7", got[0].Value, got[1].Value)
	}
	if got := d.FetchRange(Min, time.Time{}, time.Time{}, 60*time.Second); got[0].Value != 2 || got[1].Value != 1 {
		t.Errorf("mins = %v, %v, want 2, 1", got[0].Value, got[1].Value)
	}
	if got := d.FetchRange(Last, time.Time{}, time.Time{}, 60*time.Second); got[0].Value != 8 || got[1].Value != 7 {
		t.Errorf("lasts = %v, %v, want 8, 7", got[0].Value, got[1].Value)
	}
}

// --- Sharding, interning, resharding ---

func TestPoolShardStats(t *testing.T) {
	p := NewPoolShards(multiCFSpec(), 4)
	if p.Shards() != 4 {
		t.Fatalf("Shards() = %d", p.Shards())
	}
	const n = 64
	for i := 0; i < n; i++ {
		key := "c/h" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + "/m"
		if err := p.Update(key, tAligned, 1); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	stats := p.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d", len(stats))
	}
	series, updates := 0, uint64(0)
	spread := 0
	for _, s := range stats {
		series += s.Series
		updates += s.Updates
		if s.Series > 0 {
			spread++
		}
	}
	if series != n || updates != n {
		t.Errorf("shard sums: series=%d updates=%d, want %d each", series, updates, n)
	}
	if spread < 2 {
		t.Errorf("all %d series hashed to %d shard(s); sharding is not spreading", n, spread)
	}
	gu, ge := p.Stats()
	if gu != n || ge != 0 {
		t.Errorf("Stats = (%d, %d), want (%d, 0)", gu, ge, n)
	}
	// A rejected update lands in exactly one shard's error counter.
	if err := p.Update("c/haa/m", tAligned.Add(-time.Hour), 1); err == nil {
		t.Fatal("past update accepted")
	}
	if _, ge := p.Stats(); ge != 1 {
		t.Errorf("errors = %d after one rejected update", ge)
	}
}

func TestPoolInternedNames(t *testing.T) {
	p := NewPool(multiCFSpec())
	hosts, metrics := 10, 10
	for h := 0; h < hosts; h++ {
		for m := 0; m < metrics; m++ {
			err := p.UpdateSeries("cl", "host"+string(rune('0'+h)), "metric"+string(rune('0'+m)), tAligned, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Len() != hosts*metrics {
		t.Fatalf("Len = %d", p.Len())
	}
	// 100 series share 1 cluster + 10 host + 10 metric component names.
	if got := p.InternedNames(); got != 1+hosts+metrics {
		t.Errorf("InternedNames = %d, want %d", got, 1+hosts+metrics)
	}
}

// TestDefaultPoolIsCompact pins the store's footprint under the
// daemon's defaults: the pool is lock-sharded, component names are
// interned once rather than per series, and a durable snapshot costs
// at most 64 kB per series.
func TestDefaultPoolIsCompact(t *testing.T) {
	p := NewPool(DefaultSpec())
	if p.Shards() <= 1 {
		t.Errorf("default pool has %d shard(s), want more than one", p.Shards())
	}
	for h := 0; h < 16; h++ {
		for m := 0; m < 12; m++ {
			host, metric := "host"+strconv.Itoa(h), "metric"+strconv.Itoa(m)
			if err := p.UpdateSeries("cl", host, metric, tAligned, float64(h+m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := p.InternedNames(); n >= p.Len() {
		t.Errorf("%d interned names for %d series: interning saved nothing", n, p.Len())
	}
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if per := buf.Len() / p.Len(); per > 64_000 {
		t.Errorf("snapshot costs %d B per series, want <= 64 kB", per)
	}
}

func TestPoolSeriesHosts(t *testing.T) {
	p := NewPool(multiCFSpec())
	for _, h := range []string{"zeta", "alpha", "mid"} {
		if err := p.UpdateSeries("c", h, "load_one", tAligned, 1); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.UpdateSeries("c", "alpha", "other_metric", tAligned, 1)
	_ = p.UpdateSeries("other_cluster", "ghost", "load_one", tAligned, 1)
	_ = p.Update("c/load_one", tAligned, 1) // depth-2 key must not count as a host
	got := p.SeriesHosts("c", "load_one")
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SeriesHosts = %v, want %v", got, want)
	}
}

func TestSnapshotBytesIndependentOfShardCount(t *testing.T) {
	feed := func(p *Pool) {
		for i := 0; i < 40; i++ {
			key := "c/host" + string(rune('a'+i%8)) + "/metric" + string(rune('a'+i/8))
			for j := 0; j < 5; j++ {
				if err := p.Update(key, tAligned.Add(time.Duration(j)*15*time.Second), float64(i+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p1 := NewPoolShards(multiCFSpec(), 1)
	p16 := NewPoolShards(multiCFSpec(), 16)
	feed(p1)
	feed(p16)
	var b1, b16 bytes.Buffer
	if err := p1.WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p16.WriteSnapshot(&b16); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b16.Bytes()) {
		t.Error("snapshot bytes differ between 1-shard and 16-shard pools holding the same state")
	}
}

// --- Legacy checkpoint compatibility ---
//
// Snapshots written before the columnar slab carried each archive's
// ring as its own field and no Known flag. These tests forge that
// layout (gob matches fields by name, so a struct without Slab/Known
// and with per-archive Ring reproduces the old wire form exactly) and
// require restore to produce byte-identical durable state.

type legacyArchSnapshot struct {
	Ring    []float64
	End     time.Time
	Next    int
	Wrapped bool
	Accum   float64
	AccumN  int
	Unknown int
}

type legacyDBSnapshot struct {
	Spec       Spec
	Started    bool
	LastUpdate time.Time
	LastRaw    float64
	PDPStart   time.Time
	PDPSum     float64
	PDPKnown   time.Duration
	Updates    uint64
	Archives   []legacyArchSnapshot
}

type legacyPoolSnapshot struct {
	Version int
	Spec    Spec
	DBs     map[string]legacyDBSnapshot
	Updates uint64
	Errors  uint64
}

// legacyOf downgrades a live database to the pre-slab snapshot layout.
func legacyOf(d *Database) legacyDBSnapshot {
	s := legacyDBSnapshot{
		Spec:       d.spec,
		Started:    d.started,
		LastUpdate: d.lastUpdate,
		LastRaw:    d.lastRaw,
		PDPStart:   d.pdpStart,
		PDPSum:     d.pdpSum,
		PDPKnown:   d.pdpKnown,
		Updates:    d.updates,
	}
	for _, a := range d.archives {
		s.Archives = append(s.Archives, legacyArchSnapshot{
			Ring:    append([]float64(nil), a.ring...),
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

// legacyTestPool builds a pool with enough shape to matter: wrapped
// rings, unknown rows, an open PDP, and a rejected update.
func legacyTestPool(t *testing.T) *Pool {
	t.Helper()
	p := NewPool(multiCFSpec())
	for i := 0; i < 8; i++ {
		key := "c/host" + string(rune('a'+i)) + "/load_one"
		now := tAligned
		for j := 0; j < 40; j++ { // enough rows to wrap the 32-row archives
			now = now.Add(15 * time.Second)
			if err := p.Update(key, now, float64(i*40+j)); err != nil {
				t.Fatal(err)
			}
		}
		// A heartbeat gap leaves unknown rows in some series.
		if i%2 == 0 {
			now = now.Add(5 * time.Minute)
			if err := p.Update(key, now, 1); err != nil {
				t.Fatal(err)
			}
		}
		// And an off-step tail leaves an open PDP accumulation.
		if err := p.Update(key, now.Add(7*time.Second), 2); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.Update("c/hosta/load_one", tAligned, 0) // rejected: bumps the error counter
	return p
}

func TestLegacyGobSnapshotRestores(t *testing.T) {
	p := legacyTestPool(t)
	legacy := legacyPoolSnapshot{Version: persistVersion, Spec: p.spec, DBs: make(map[string]legacyDBSnapshot)}
	for _, s := range p.shards {
		s.each(func(key string, db *Database) { legacy.DBs[key] = legacyOf(db) })
		legacy.Updates += s.updates
		legacy.Errors += s.errors
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPool(&buf)
	if err != nil {
		t.Fatalf("LoadPool(legacy): %v", err)
	}
	var want, got bytes.Buffer
	if err := p.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("pool restored from a legacy gob snapshot is not byte-identical to the original")
	}
}

func TestLegacyFramedSnapshotRestores(t *testing.T) {
	p := legacyTestPool(t)

	// Forge a framed checkpoint whose 'D' payloads use the legacy
	// per-archive Ring layout, exactly as an old daemon wrote them.
	type legacyFileDB struct {
		Key string
		DB  legacyDBSnapshot
	}
	var dbs []legacyFileDB
	meta := snapFileMeta{Version: persistVersion, Spec: p.spec}
	for _, s := range p.shards {
		s.each(func(key string, db *Database) {
			dbs = append(dbs, legacyFileDB{Key: key, DB: legacyOf(db)})
		})
		meta.Updates += s.updates
		meta.Errors += s.errors
	}
	meta.DBs = len(dbs)
	for i := range dbs {
		for j := i + 1; j < len(dbs); j++ {
			if dbs[j].Key < dbs[i].Key {
				dbs[i], dbs[j] = dbs[j], dbs[i]
			}
		}
	}

	var file bytes.Buffer
	if _, err := file.Write(snapMagic[:]); err != nil {
		t.Fatal(err)
	}
	var chain, count uint32
	emit := func(kind byte, v any) {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(v); err != nil {
			t.Fatal(err)
		}
		crc, err := writeRecord(&file, kind, payload.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc)
		chain = crc32.Update(chain, castagnoli, b[:])
		count++
	}
	emit(recMeta, meta)
	for i := range dbs {
		emit(recDB, dbs[i])
	}
	var seal [8]byte
	binary.LittleEndian.PutUint32(seal[:4], count)
	binary.LittleEndian.PutUint32(seal[4:], chain)
	if _, err := writeRecord(&file, recSeal, seal[:]); err != nil {
		t.Fatal(err)
	}

	restored, err := ReadSnapshot(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot(legacy layout): %v", err)
	}
	var want, got bytes.Buffer
	if err := p.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("pool restored from a legacy framed checkpoint is not byte-identical to the original")
	}
	// And the restored pool answers range queries like the original.
	key := "c/hosta/load_one"
	if !pointsEqual(
		p.FetchRange(key, Average, time.Time{}, time.Time{}, 60*time.Second),
		restored.FetchRange(key, Average, time.Time{}, time.Time{}, 60*time.Second),
	) {
		t.Error("restored pool consolidates differently from the original")
	}
}

// pointsEqual compares point slices treating NaN as equal to NaN
// (reflect.DeepEqual would not).
func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) {
			return false
		}
		if math.IsNaN(a[i].Value) != math.IsNaN(b[i].Value) {
			return false
		}
		if !math.IsNaN(a[i].Value) && a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}
