package rrd

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Unix(1_057_000_000, 0).Truncate(time.Minute)

func smallSpec() Spec {
	return Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []ArchiveSpec{
			{Step: 15 * time.Second, Rows: 16, CF: Average},
			{Step: 60 * time.Second, Rows: 16, CF: Average},
			{Step: 60 * time.Second, Rows: 16, CF: Max},
		},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Spec{
		{},                       // zero step
		{Step: 15 * time.Second}, // no archives
		{Step: 15 * time.Second, Archives: []ArchiveSpec{{Step: 10 * time.Second, Rows: 4}}},                         // non-multiple
		{Step: 15 * time.Second, Archives: []ArchiveSpec{{Step: 15 * time.Second, Rows: 0}}},                         // zero rows
		{Step: 15 * time.Second, Heartbeat: time.Second, Archives: []ArchiveSpec{{Step: 15 * time.Second, Rows: 4}}}, // hb < step
	}
	for i, s := range cases {
		if _, err := New(s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
	if _, err := New(smallSpec()); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if _, err := New(DefaultSpec()); err != nil {
		t.Errorf("DefaultSpec rejected: %v", err)
	}
}

func fill(t *testing.T, db *Database, start time.Time, every time.Duration, vals []float64) time.Time {
	t.Helper()
	now := start
	for _, v := range vals {
		now = now.Add(every)
		if err := db.Update(now, v); err != nil {
			t.Fatalf("update at %v: %v", now, err)
		}
	}
	return now
}

func TestGaugeAverage(t *testing.T) {
	db, _ := New(smallSpec())
	// Constant value 2.0 every 15s: every PDP and every row must be 2.
	end := fill(t, db, t0, 15*time.Second, []float64{2, 2, 2, 2, 2, 2, 2, 2})
	if got := db.Last(); got != 2 {
		t.Errorf("Last = %v", got)
	}
	pts := db.Fetch(Average, t0, end)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if !math.IsNaN(p.Value) && p.Value != 2 {
			t.Errorf("point %v = %v", p.Time, p.Value)
		}
	}
}

func TestPastUpdateRejected(t *testing.T) {
	db, _ := New(smallSpec())
	if err := db.Update(t0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(t0, 2); !errors.Is(err, ErrPastUpdate) {
		t.Errorf("same-time update: %v", err)
	}
	if err := db.Update(t0.Add(-time.Minute), 2); !errors.Is(err, ErrPastUpdate) {
		t.Errorf("past update: %v", err)
	}
	if db.Updates() != 1 {
		t.Errorf("updates = %d", db.Updates())
	}
}

func TestConsolidationAverage(t *testing.T) {
	db, _ := New(smallSpec())
	// 60s archive consolidates 4 PDPs of 15s. With RRD semantics a
	// sample's value labels the interval ending at it, so samples
	// 1,2,3,4,5 yield PDPs 2,3,4,5 → row average 3.5.
	fill(t, db, t0, 15*time.Second, []float64{1, 2, 3, 4, 5})
	coarse := db.archives[1]
	if coarse.rows() < 1 {
		t.Fatal("coarse archive empty")
	}
	if row := coarse.ring[0]; math.Abs(row-3.5) > 1e-9 {
		t.Errorf("coarse row = %v, want 3.5", row)
	}
}

func TestConsolidationMax(t *testing.T) {
	db, _ := New(smallSpec())
	fill(t, db, t0, 15*time.Second, []float64{1, 7, 3, 2, 5})
	maxA := db.archives[2]
	if maxA.rows() < 1 {
		t.Fatal("max archive empty")
	}
	if got := maxA.ring[0]; got != 7 {
		t.Errorf("max row = %v, want 7", got)
	}
}

func TestUnknownOnSilence(t *testing.T) {
	db, _ := New(smallSpec())
	now := fill(t, db, t0, 15*time.Second, []float64{1, 1, 1, 1})
	// Silence for 10 minutes (≫ heartbeat of 60s), then resume.
	now = now.Add(10 * time.Minute)
	if err := db.Update(now, 1); err != nil {
		t.Fatal(err)
	}
	now = fill(t, db, now, 15*time.Second, []float64{1, 1})
	pts := db.Fetch(Average, t0, now)
	unknown := 0
	for _, p := range pts {
		if math.IsNaN(p.Value) {
			unknown++
		}
	}
	if unknown == 0 {
		t.Error("no unknown slots recorded for the silent interval")
	}
}

func TestCounterRates(t *testing.T) {
	spec := smallSpec()
	spec.Type = Counter
	db, _ := New(spec)
	// A counter increasing by 150 per 15s step is a rate of 10/s.
	vals := []float64{1000, 1150, 1300, 1450, 1600, 1750}
	fill(t, db, t0, 15*time.Second, vals)
	if got := db.Last(); math.Abs(got-10) > 1e-9 {
		t.Errorf("counter rate = %v, want 10", got)
	}
}

func TestCounterReset(t *testing.T) {
	spec := smallSpec()
	spec.Type = Counter
	db, _ := New(spec)
	fill(t, db, t0, 15*time.Second, []float64{1000, 1150})
	// Reset to zero (daemon restart): negative delta must become
	// unknown, not a huge negative rate.
	now := t0.Add(45 * time.Second)
	if err := db.Update(now, 10); err != nil {
		t.Fatal(err)
	}
	fill(t, db, now, 15*time.Second, []float64{160, 310})
	for _, p := range db.Fetch(Average, t0, now.Add(time.Minute)) {
		if !math.IsNaN(p.Value) && p.Value < 0 {
			t.Errorf("negative rate %v leaked through a counter reset", p.Value)
		}
	}
}

func TestRingWrapsBounded(t *testing.T) {
	db, _ := New(smallSpec())
	rowsBefore := db.MemoryRows()
	// Feed far more samples than total capacity.
	now := t0
	for i := 0; i < 2000; i++ {
		now = now.Add(15 * time.Second)
		if err := db.Update(now, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.MemoryRows() != rowsBefore {
		t.Errorf("memory grew: %d -> %d rows", rowsBefore, db.MemoryRows())
	}
	// The fine archive holds only the most recent 16 rows.
	pts := db.Fetch(Average, now.Add(-4*time.Minute), now)
	if len(pts) == 0 || len(pts) > 16 {
		t.Errorf("fine fetch returned %d points", len(pts))
	}
	// Recent data is high-valued; nothing from the distant past.
	for _, p := range pts {
		if !math.IsNaN(p.Value) && p.Value < 1900 {
			t.Errorf("stale value %v in recent window", p.Value)
		}
	}
}

func TestMultiResolutionBias(t *testing.T) {
	// The defining property (paper §2.1): old history is visible only
	// at coarse resolution, recent history at fine resolution.
	db, _ := New(smallSpec())
	now := t0
	for i := 0; i < 200; i++ { // 50 minutes of 15s samples
		now = now.Add(15 * time.Second)
		if err := db.Update(now, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Recent window: served at 15s resolution.
	recent := db.Fetch(Average, now.Add(-3*time.Minute), now)
	if len(recent) < 10 {
		t.Errorf("recent fetch too sparse: %d points", len(recent))
	}
	// Whole history: fine archive (4 min) cannot cover it, so the 60s
	// archive answers with coarser spacing.
	all := db.Fetch(Average, t0, now)
	if len(all) == 0 {
		t.Fatal("no history")
	}
	if len(all) > 16 {
		t.Errorf("history fetch returned %d points from a 16-row archive", len(all))
	}
	if len(all) >= 2 {
		gap := all[1].Time.Sub(all[0].Time)
		if gap != 60*time.Second {
			t.Errorf("history resolution %v, want 60s", gap)
		}
	}
}

func TestFetchUnknownCF(t *testing.T) {
	// A cf no archive was provisioned with falls back to the rows that
	// exist: the stock Ganglia layout is AVERAGE-only, and cf=MIN/MAX
	// must still answer rather than serve silence.
	db, _ := New(smallSpec())
	fill(t, db, t0, 15*time.Second, []float64{1, 2, 3, 4, 5})
	want := db.Fetch(Average, t0, t0.Add(time.Hour))
	got := db.Fetch(Min, t0, t0.Add(time.Hour))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Min fetch with no Min archive = %v, want the fallback rows %v", got, want)
	}
	// On an empty database every cf still answers nothing.
	empty, _ := New(smallSpec())
	if pts := empty.Fetch(Min, t0, t0.Add(time.Hour)); pts != nil {
		t.Errorf("Min fetch on empty db returned %d points", len(pts))
	}
}

func TestLastEmpty(t *testing.T) {
	db, _ := New(smallSpec())
	if !math.IsNaN(db.Last()) {
		t.Error("Last on empty db not NaN")
	}
}

func TestCFString(t *testing.T) {
	for cf, want := range map[CF]string{Average: "AVERAGE", Min: "MIN", Max: "MAX", Last: "LAST"} {
		if cf.String() != want {
			t.Errorf("%d.String() = %q", cf, cf.String())
		}
	}
}

// Property: for a gauge fed constant v at the base step, every known
// consolidated value equals v (consolidation must not invent values).
func TestQuickConstantInvariant(t *testing.T) {
	f := func(raw int16, n uint8) bool {
		v := float64(raw) / 7
		db, err := New(smallSpec())
		if err != nil {
			return false
		}
		now := t0
		steps := int(n)%100 + 10
		for i := 0; i < steps; i++ {
			now = now.Add(15 * time.Second)
			if err := db.Update(now, v); err != nil {
				return false
			}
		}
		for _, p := range db.Fetch(Average, t0, now) {
			if !math.IsNaN(p.Value) && math.Abs(p.Value-v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: consolidated averages never exceed the range of the inputs.
func TestQuickRangeInvariant(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) < 4 {
			return true
		}
		db, err := New(smallSpec())
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		now := t0
		for _, b := range vals {
			v := float64(b)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			now = now.Add(15 * time.Second)
			if err := db.Update(now, v); err != nil {
				return false
			}
		}
		for _, p := range db.Fetch(Average, t0, now) {
			if math.IsNaN(p.Value) {
				continue
			}
			if p.Value < lo-1e-9 || p.Value > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolBasics(t *testing.T) {
	p := NewPool(smallSpec())
	now := t0
	for i := 0; i < 8; i++ {
		now = now.Add(15 * time.Second)
		if err := p.Update("Meteor/n0/load_one", now, 1.5); err != nil {
			t.Fatal(err)
		}
		if err := p.Update("Meteor/n1/load_one", now, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != "Meteor/n0/load_one" {
		t.Errorf("Keys = %v", keys)
	}
	if v, ok := p.Last("Meteor/n1/load_one"); !ok || v != 2.5 {
		t.Errorf("Last = %v %v", v, ok)
	}
	if _, ok := p.Last("absent"); ok {
		t.Error("Last on absent key ok")
	}
	if pts := p.Fetch("Meteor/n0/load_one", Average, t0, now); len(pts) == 0 {
		t.Error("Fetch returned nothing")
	}
	if pts := p.Fetch("absent", Average, t0, now); pts != nil {
		t.Error("Fetch on absent key returned points")
	}
	ups, errs := p.Stats()
	if ups != 16 || errs != 0 {
		t.Errorf("stats = %d/%d", ups, errs)
	}
	// A rejected update is counted.
	if err := p.Update("Meteor/n0/load_one", t0, 0); err == nil {
		t.Error("past update accepted")
	}
	if _, errs := p.Stats(); errs != 1 {
		t.Errorf("error count = %d", errs)
	}
}

// TestRejectedUpdateAllocsNothing gates the archive hot path's cheapest
// case: a sample coalesced away because its instant was already written
// (two ingests of one source within one archive step) must cost the
// bare sentinel, not a formatted error.
func TestRejectedUpdateAllocsNothing(t *testing.T) {
	p := NewPool(smallSpec())
	at := t0.Add(15 * time.Second)
	if err := p.UpdateSeries("c", "h", "m", at, 1); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		err = p.UpdateSeries("c", "h", "m", at, 2)
	})
	if err != ErrPastUpdate {
		t.Fatalf("rejected update returned %v, want the bare ErrPastUpdate", err)
	}
	if allocs != 0 {
		t.Errorf("rejected UpdateSeries allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkUpdate(b *testing.B) {
	db, _ := New(DefaultSpec())
	now := t0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(15 * time.Second)
		if err := db.Update(now, float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolPerUpdate measures the paper's §4 archiving bottleneck:
// one lock round-trip per sample, 300 series per polling round.
func BenchmarkPoolPerUpdate(b *testing.B) {
	p := NewPool(DefaultSpec())
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = "c/n" + itoa(i) + "/m"
	}
	now := t0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(15 * time.Second)
		for _, k := range keys {
			if err := p.Update(k, now, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
