// Package rrd implements a round-robin time-series database in the
// style of RRDtool, the archive engine behind Ganglia's metric
// histories (paper §2.1).
//
// Each Database holds one stream in a set of fixed-size archives of
// increasing consolidation: full resolution for recent samples,
// progressively coarser rollups for older data. The design is lossy
// "with a bias towards recent data" and archives "do not grow in size
// over time" — we can see a metric's history over the past year, but
// with less resolution than recent behavior.
//
// Samples arriving after a silence longer than the heartbeat are
// preceded by unknown slots; the gmetad layer additionally writes
// explicit zero records for hosts it knows to be down, the paper's
// "time-of-death" forensic aid.
package rrd

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CF is a consolidation function: how a group of primary data points
// collapses into one coarser archive row.
type CF uint8

// Supported consolidation functions.
const (
	Average CF = iota
	Min
	Max
	Last
)

// String returns the RRDtool spelling of the consolidation function.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Last:
		return "LAST"
	}
	return fmt.Sprintf("CF(%d)", uint8(c))
}

// DSType is the data-source type.
type DSType uint8

const (
	// Gauge stores sample values as-is (load_one, mem_free).
	Gauge DSType = iota
	// Counter stores the per-second rate of a monotonically increasing
	// counter, tolerating resets by clamping negative rates to unknown.
	Counter
)

// ArchiveSpec describes one round-robin archive.
type ArchiveSpec struct {
	// Step is the consolidation period; it must be a positive multiple
	// of the database step.
	Step time.Duration
	// Rows is the archive capacity; the archive covers Step×Rows of
	// history.
	Rows int
	// CF selects the consolidation function.
	CF CF
	// XFF (x-files factor) is the maximum fraction of the primary data
	// points in a consolidation window that may be unknown while still
	// producing a known row. Zero defaults to 0.5.
	XFF float64
}

// Spec describes a database.
type Spec struct {
	// Step is the primary data point length.
	Step time.Duration
	// Heartbeat is the maximum silence between updates before the
	// intervening interval becomes unknown. Zero defaults to 4×Step.
	Heartbeat time.Duration
	// Type selects gauge or counter semantics; default Gauge.
	Type DSType
	// Archives must be non-empty.
	Archives []ArchiveSpec
}

// DefaultSpec mirrors the archive layout Ganglia provisions per metric:
// 15-second primary points kept for an hour, then progressively coarser
// averages out to a year — the "wide range of time scale queries" of
// paper §2.1.
func DefaultSpec() Spec {
	return Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives: []ArchiveSpec{
			{Step: 15 * time.Second, Rows: 240, CF: Average},              // 1 hour
			{Step: 6 * time.Minute, Rows: 240, CF: Average},               // 1 day
			{Step: 42 * time.Minute, Rows: 240, CF: Average},              // 1 week
			{Step: 3 * time.Hour, Rows: 240, CF: Average},                 // 1 month
			{Step: 36*time.Hour + 30*time.Minute, Rows: 240, CF: Average}, // 1 year
		},
	}
}

// Point is one fetched sample.
type Point struct {
	Time  time.Time
	Value float64 // NaN when unknown
}

type archive struct {
	spec   ArchiveSpec
	factor int // spec.Step / db.Step

	// ring is this archive's window into the database's columnar slab:
	// a sub-slice, not a private allocation. NaN = unknown.
	ring []float64
	// end is the exclusive end time of the most recent row; the ring
	// is full once wrapped is true.
	end     time.Time
	next    int
	wrapped bool

	// accumulation of primary points toward the current row
	accum   float64
	accumN  int
	unknown int
}

var (
	// ErrPastUpdate is returned when an update is not newer than the
	// previous one.
	ErrPastUpdate = errors.New("rrd: update not after previous update")
	// ErrBadSpec is returned by New for invalid specifications.
	ErrBadSpec = errors.New("rrd: invalid spec")
)

// Database is one metric's history. It is not safe for concurrent use;
// gmetad guards each database with its pool's locking discipline.
type Database struct {
	spec Spec

	started    bool
	lastUpdate time.Time
	lastRaw    float64 // previous raw value, for Counter rate
	pdpStart   time.Time
	pdpSum     float64
	pdpKnown   time.Duration

	// slab is the columnar row store: one contiguous allocation holding
	// every archive's ring as a sub-slice. The checkpoint format reads
	// and writes it as a single column (see persist.go), and a pool of
	// many small databases makes one allocation each instead of one per
	// archive.
	slab     []float64
	archives []*archive
	updates  uint64

	// known is set once archives[0] has stored at least one valid
	// (non-NaN) row; until then Last is meaningless and Pool.Last
	// reports (0, false).
	known bool
}

// New creates a Database. The first Update establishes the time origin.
func New(spec Spec) (*Database, error) {
	if spec.Step <= 0 {
		return nil, fmt.Errorf("%w: non-positive step", ErrBadSpec)
	}
	if spec.Heartbeat == 0 {
		spec.Heartbeat = 4 * spec.Step
	}
	if spec.Heartbeat < spec.Step {
		return nil, fmt.Errorf("%w: heartbeat shorter than step", ErrBadSpec)
	}
	if len(spec.Archives) == 0 {
		return nil, fmt.Errorf("%w: no archives", ErrBadSpec)
	}
	total := 0
	for _, as := range spec.Archives {
		if as.Rows <= 0 {
			return nil, fmt.Errorf("%w: archive rows %d", ErrBadSpec, as.Rows)
		}
		if as.Step <= 0 || as.Step%spec.Step != 0 {
			return nil, fmt.Errorf("%w: archive step %v not a multiple of %v",
				ErrBadSpec, as.Step, spec.Step)
		}
		total += as.Rows
	}
	db := &Database{spec: spec, slab: make([]float64, total)}
	for i := range db.slab {
		db.slab[i] = math.NaN()
	}
	off := 0
	for _, as := range spec.Archives {
		if as.XFF == 0 {
			as.XFF = 0.5
		}
		a := &archive{
			spec:   as,
			factor: int(as.Step / spec.Step),
			ring:   db.slab[off : off+as.Rows : off+as.Rows],
		}
		off += as.Rows
		db.archives = append(db.archives, a)
	}
	return db, nil
}

// Step returns the primary data point length.
func (d *Database) Step() time.Duration { return d.spec.Step }

// Updates returns the number of successful updates, the unit of archive
// work the experiment harness accounts.
func (d *Database) Updates() uint64 { return d.updates }

// Update folds one sample at time t into the database.
func (d *Database) Update(t time.Time, v float64) error {
	t = t.Truncate(time.Second)
	if !d.started {
		d.started = true
		d.lastUpdate = t
		d.lastRaw = v
		d.pdpStart = t.Truncate(d.spec.Step)
		d.updates++
		// The first sample seeds the open PDP from pdpStart to t.
		if !math.IsNaN(v) && d.spec.Type == Gauge {
			elapsed := t.Sub(d.pdpStart)
			d.pdpSum += rate0(v) * elapsed.Seconds()
			d.pdpKnown += elapsed
		}
		return nil
	}
	if !t.After(d.lastUpdate) {
		// The bare sentinel: coalesced samples (two ingests within one
		// instant) are routine on the archive hot path, and formatting
		// two timestamps per rejected sample dominated it.
		return ErrPastUpdate
	}

	interval := t.Sub(d.lastUpdate)
	var r float64
	known := interval <= d.spec.Heartbeat && !math.IsNaN(v)
	if known {
		switch d.spec.Type {
		case Gauge:
			r = v
		case Counter:
			delta := v - d.lastRaw
			if delta < 0 {
				known = false // counter reset
			} else {
				r = delta / interval.Seconds()
			}
		}
	}

	// Walk PDP boundaries between lastUpdate and t, distributing the
	// interval's rate across them.
	cur := d.lastUpdate
	for cur.Before(t) {
		pdpEnd := d.pdpStart.Add(d.spec.Step)
		segEnd := t
		if pdpEnd.Before(segEnd) {
			segEnd = pdpEnd
		}
		seg := segEnd.Sub(cur)
		if known {
			d.pdpSum += r * seg.Seconds()
			d.pdpKnown += seg
		}
		cur = segEnd
		if cur.Equal(pdpEnd) {
			d.closePDP(pdpEnd)
		}
	}

	d.lastUpdate = t
	d.lastRaw = v
	d.updates++
	return nil
}

// closePDP finalizes the primary data point ending at end and feeds it
// to every archive.
func (d *Database) closePDP(end time.Time) {
	var primary float64
	if d.pdpKnown*2 >= d.spec.Step { // at least half the step known
		primary = d.pdpSum / d.pdpKnown.Seconds()
	} else {
		primary = math.NaN()
	}
	d.pdpSum = 0
	d.pdpKnown = 0
	d.pdpStart = end
	for i, a := range d.archives {
		if emitted, row := a.push(primary, end); i == 0 && emitted && !math.IsNaN(row) {
			d.known = true
		}
	}
}

// push accumulates one primary point into the archive's current window,
// emitting a row when the window completes; it reports whether a row
// was emitted and its value.
func (a *archive) push(v float64, end time.Time) (bool, float64) {
	if math.IsNaN(v) {
		a.unknown++
	} else {
		switch a.spec.CF {
		case Average:
			a.accum += v
		case Min:
			if a.accumN == 0 || v < a.accum {
				a.accum = v
			}
		case Max:
			if a.accumN == 0 || v > a.accum {
				a.accum = v
			}
		case Last:
			a.accum = v
		}
		a.accumN++
	}
	if a.accumN+a.unknown < a.factor {
		return false, 0
	}
	var row float64
	frac := float64(a.unknown) / float64(a.factor)
	if a.accumN == 0 || frac > a.spec.XFF {
		row = math.NaN()
	} else if a.spec.CF == Average {
		row = a.accum / float64(a.accumN)
	} else {
		row = a.accum
	}
	a.ring[a.next] = row
	a.next++
	if a.next == len(a.ring) {
		a.next = 0
		a.wrapped = true
	}
	a.end = end
	a.accum, a.accumN, a.unknown = 0, 0, 0
	return true, row
}

// rows returns the number of valid rows currently stored.
func (a *archive) rows() int {
	if a.wrapped {
		return len(a.ring)
	}
	return a.next
}

// fetchArchives returns the archives a cf query may be served from:
// the cf-matching ones when any holds data, otherwise every populated
// archive — a layout provisioned without e.g. MAX rollups (the stock
// Ganglia layout is AVERAGE-only) still answers cf=MAX by
// re-consolidating the rows it does have at query time.
func (d *Database) fetchArchives(cf CF) []*archive {
	var match, any []*archive
	for _, a := range d.archives {
		if a.rows() == 0 {
			continue
		}
		if a.spec.CF == cf {
			match = append(match, a)
		}
		any = append(any, a)
	}
	if len(match) > 0 {
		return match
	}
	return any
}

// Fetch returns the consolidated points with function cf covering
// [start, end], from the highest-resolution archive whose retention
// reaches back to start. This is the multiple-time-scale query of
// paper §2.1: asking about last hour hits the fine archive, asking
// about last year the coarse one. When no archive was provisioned
// with cf, the rows come from the finest archive that exists (see
// fetchArchives).
func (d *Database) Fetch(cf CF, start, end time.Time) []Point {
	var chosen *archive
	var chosenOldest time.Time
	for _, a := range d.fetchArchives(cf) {
		oldest := a.end.Add(-time.Duration(a.rows()) * a.spec.Step)
		if !oldest.After(start) {
			chosen = a
			break // finest archive that reaches back to start
		}
		// No archive may cover start (it predates all retention);
		// remember the one whose stored data reaches back furthest,
		// preferring the finer archive on ties.
		if chosen == nil || oldest.Before(chosenOldest) {
			chosen, chosenOldest = a, oldest
		}
	}
	if chosen == nil {
		return nil
	}
	var pts []Point
	n := chosen.rows()
	first := chosen.next - n
	for i := 0; i < n; i++ {
		idx := first + i
		if idx < 0 {
			idx += len(chosen.ring)
		}
		ts := chosen.end.Add(-time.Duration(n-1-i) * chosen.spec.Step)
		if ts.Before(start) || ts.After(end) {
			continue
		}
		pts = append(pts, Point{Time: ts, Value: chosen.ring[idx]})
	}
	return pts
}

// FetchRange is Fetch with query-time consolidation: the archive rows
// covering [start, end] are re-consolidated into buckets of length
// step, each bucket reported at its (step-grid-aligned) end time. This
// is how one archive layout answers the "wide range of time scale
// queries" of paper §2.1 at arbitrary granularity — the stored rollups
// give the base resolution, the query picks the display resolution.
//
// A non-positive step means "no re-consolidation" and returns the
// archive rows as-is, exactly as Fetch would. A start after end returns
// nil. A step coarser than the whole retained range degenerates to a
// single bucket. Buckets whose every source row is unknown yield NaN
// points (the query asked about a window; the answer is "unknown", not
// silence), but ranges with no stored rows at all yield no points.
//
// A zero start or end defaults to the matching edge of the finest
// cf-archive's retained window, so FetchRange(cf, zero, zero, 0)
// reproduces FetchRecent(cf) exactly — the property the history query
// engine's equivalence oracle rests on.
func (d *Database) FetchRange(cf CF, start, end time.Time, step time.Duration) []Point {
	if start.IsZero() || end.IsZero() {
		var fin *archive
		if arcs := d.fetchArchives(cf); len(arcs) > 0 {
			fin = arcs[0]
		}
		if fin == nil {
			return nil
		}
		if end.IsZero() {
			end = fin.end
		}
		if start.IsZero() {
			start = fin.end.Add(-time.Duration(fin.rows()-1) * fin.spec.Step)
		}
	}
	if start.After(end) {
		return nil
	}
	src := d.Fetch(cf, start, end)
	if step <= 0 || len(src) == 0 {
		return src
	}
	var (
		out  []Point
		open bool
		bEnd time.Time
		acc  float64
		n    int
	)
	flush := func() {
		if !open {
			return
		}
		v := math.NaN()
		if n > 0 {
			if cf == Average {
				v = acc / float64(n)
			} else {
				v = acc
			}
		}
		out = append(out, Point{Time: bEnd, Value: v})
		open, acc, n = false, 0, 0
	}
	for _, p := range src {
		// Bucket rows by the step grid: a row at time t belongs to the
		// bucket ending at the smallest grid point >= t.
		be := p.Time.Truncate(step)
		if be.Before(p.Time) {
			be = be.Add(step)
		}
		if !open || !be.Equal(bEnd) {
			flush()
			open, bEnd = true, be
		}
		if math.IsNaN(p.Value) {
			continue
		}
		switch cf {
		case Average:
			acc += p.Value
		case Min:
			if n == 0 || p.Value < acc {
				acc = p.Value
			}
		case Max:
			if n == 0 || p.Value > acc {
				acc = p.Value
			}
		case Last:
			acc = p.Value
		}
		n++
	}
	flush()
	return out
}

// FetchRecent returns the entire contents of the finest archive with
// consolidation function cf — the highest-resolution window available,
// which is what an interactive history view wants. Like Fetch, a cf
// no archive was provisioned with is served from the finest archive
// that exists.
func (d *Database) FetchRecent(cf CF) []Point {
	for _, a := range d.fetchArchives(cf) {
		end := a.end
		start := end.Add(-time.Duration(a.rows()-1) * a.spec.Step)
		return d.Fetch(cf, start, end)
	}
	return nil
}

// Last returns the most recent consolidated value from the finest
// archive, or NaN if nothing has been stored.
func (d *Database) Last() float64 {
	a := d.archives[0]
	if a.rows() == 0 {
		return math.NaN()
	}
	idx := a.next - 1
	if idx < 0 {
		idx += len(a.ring)
	}
	return a.ring[idx]
}

// MemoryRows returns the total rows across archives — constant for the
// life of the database, demonstrating the "do not grow in size over
// time" property.
func (d *Database) MemoryRows() int {
	n := 0
	for _, a := range d.archives {
		n += len(a.ring)
	}
	return n
}

func rate0(v float64) float64 { return v }
