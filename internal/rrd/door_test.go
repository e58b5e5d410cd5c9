package rrd

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// doorHost is one simulated host feeding the write door: its metric
// names in its current report order.
type doorHost struct {
	cluster, host string
	metrics       []string
}

// doorRig feeds the same offers three ways: through UpdateHost (door),
// one Update(key) per sample (byKey), and one Database per series built
// with New (ref), counting the reference's accepted and rejected
// samples.
type doorRig struct {
	t             *testing.T
	door, byKey   *Pool
	ref           map[string]*Database
	accepted, rej uint64
}

func newDoorRig(t *testing.T) *doorRig {
	return &doorRig{
		t:     t,
		door:  NewPool(multiCFSpec()),
		byKey: NewPool(multiCFSpec()),
		ref:   make(map[string]*Database),
	}
}

// offerRef folds one sample into the reference and the by-key pool.
func (r *doorRig) offerRef(key string, at time.Time, v float64) {
	r.t.Helper()
	db := r.ref[key]
	if db == nil {
		var err error
		if db, err = New(multiCFSpec()); err != nil {
			r.t.Fatal(err)
		}
		r.ref[key] = db
	}
	refErr := db.Update(at, v)
	if refErr != nil {
		r.rej++
	} else {
		r.accepted++
	}
	if err := r.byKey.Update(key, at, v); (err == nil) != (refErr == nil) {
		r.t.Fatalf("Update(%q) at %v = %v, reference %v", key, at, err, refErr)
	}
}

// offerHost writes one host's batch through the door and, sample by
// sample, through the other two paths.
func (r *doorRig) offerHost(cluster, host string, at time.Time, batch []Sample) {
	r.t.Helper()
	err := r.door.UpdateHost(cluster, host, at, batch)
	before := r.rej
	for _, s := range batch {
		r.offerRef(cluster+"/"+host+"/"+s.Metric, at, s.Value)
	}
	if refRejected := r.rej != before; (err != nil) != refRejected {
		r.t.Fatalf("UpdateHost(%s/%s) at %v = %v, reference rejected a sample: %v", cluster, host, at, err, refRejected)
	}
}

// offerKey writes one sample by slash key through the door pool's
// one-sample entry and through the other two paths.
func (r *doorRig) offerKey(key string, at time.Time, v float64) {
	r.t.Helper()
	before := r.rej
	r.offerRef(key, at, v)
	if err := r.door.Update(key, at, v); (err == nil) != (r.rej == before) {
		r.t.Fatalf("door Update(%q) at %v = %v, reference rejected %v", key, at, err, r.rej != before)
	}
}

func snapshotBytes(t *testing.T, p *Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestUpdateHostMatchesReference is the door's equivalence oracle:
// seeded random host reports go through UpdateHost while the same
// offers, one sample at a time, feed a private Database per series and
// a pool written through Update(key). Report order changes between
// rounds, metrics come and go mid-host, instants are re-offered,
// depth-1 and depth-2 slash keys (and depth-3 keys sharing a host's
// row) interleave with the host writes, and the door pool is twice
// rebuilt from its own snapshot mid-run, so later rounds write into
// rows restored from records. Every series must fetch identically on
// every archive, Stats must count what the reference accepted and
// rejected, and the checkpoint bytes must equal the by-key pool's.
func TestUpdateHostMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			testDoorEquivalence(t, seed)
		})
	}
}

func testDoorEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newDoorRig(t)
	var hosts []*doorHost
	for c := 0; c < 2; c++ {
		for h := 0; h < 5; h++ {
			dh := &doorHost{cluster: "c" + strconv.Itoa(c), host: "h" + strconv.Itoa(h)}
			for m := 0; m < 12; m++ {
				dh.metrics = append(dh.metrics, "m"+strconv.Itoa(m))
			}
			hosts = append(hosts, dh)
		}
	}
	// Slash keys outside UpdateHost's depth-3 rows, and depth-3 keys
	// that land in a host's row (an empty metric, a metric with a
	// slash in it).
	slashKeys := []string{"c0", "c1", "c0/h1", "c1/h3", "c0/h1/", "c0/h1/a/b", "c1/h9/m0"}

	value := func() float64 {
		if rng.Intn(20) == 0 {
			return math.NaN()
		}
		return math.Round(rng.Float64()*1e4) / 100
	}
	var batch []Sample
	now := tAligned
	for round := 0; round < 160; round++ {
		switch rng.Intn(12) {
		case 0, 1: // same-instant re-offer: every sample is rejected
		case 2:
			now = now.Add(5 * time.Minute) // a silence past the heartbeat
		case 3:
			now = now.Add(7 * time.Second) // off the step grid
		default:
			now = now.Add(15 * time.Second)
		}
		switch round {
		case 60: // continue on rows rebuilt from framed-snapshot records
			restored, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, r.door)))
			if err != nil {
				t.Fatal(err)
			}
			r.door = restored
		case 110: // and from the legacy gob stream
			var buf bytes.Buffer
			if err := r.door.SaveTo(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadPool(&buf)
			if err != nil {
				t.Fatal(err)
			}
			r.door = restored
		}
		rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		for _, h := range hosts {
			switch rng.Intn(10) {
			case 0: // the report order changes
				rng.Shuffle(len(h.metrics), func(i, j int) { h.metrics[i], h.metrics[j] = h.metrics[j], h.metrics[i] })
			case 1: // a metric appears mid-host
				at := rng.Intn(len(h.metrics) + 1)
				name := "x" + strconv.Itoa(round)
				h.metrics = append(h.metrics[:at], append([]string{name}, h.metrics[at:]...)...)
			case 2: // a metric is gone from now on
				if len(h.metrics) > 1 {
					at := rng.Intn(len(h.metrics))
					h.metrics = append(h.metrics[:at], h.metrics[at+1:]...)
				}
			}
			batch = batch[:0]
			for _, m := range h.metrics {
				if rng.Intn(15) == 0 {
					continue // missing from this one report
				}
				batch = append(batch, Sample{Metric: m, Value: value()})
				if rng.Intn(40) == 0 { // the same metric twice in one report
					batch = append(batch, Sample{Metric: m, Value: value()})
				}
			}
			r.offerHost(h.cluster, h.host, now, batch)
			if rng.Intn(4) == 0 {
				r.offerKey(slashKeys[rng.Intn(len(slashKeys))], now, value())
			}
		}
	}

	keys := make([]string, 0, len(r.ref))
	for k := range r.ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := r.door.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("door pool holds %d series, reference %d:\n%v\n%v", len(got), len(keys), got, keys)
	}
	if up, rej := r.door.Stats(); up != r.accepted || rej != r.rej {
		t.Errorf("Stats = (%d accepted, %d rejected), reference (%d, %d)", up, rej, r.accepted, r.rej)
	}
	if r.rej == 0 || r.accepted == 0 {
		t.Fatalf("degenerate run: %d accepted, %d rejected", r.accepted, r.rej)
	}
	start := tAligned
	for _, key := range keys {
		db := r.ref[key]
		for _, a := range multiCFSpec().Archives {
			for _, from := range []time.Time{start, now.Add(-10 * time.Minute)} {
				if got, want := r.door.Fetch(key, a.CF, from, now), db.Fetch(a.CF, from, now); !samePoints(got, want) {
					t.Fatalf("%s: Fetch(%v, %v..%v) differs from the reference:\n got %v\nwant %v", key, a.CF, from, now, got, want)
				}
				if got, want := r.door.FetchRange(key, a.CF, from, now, a.Step), db.FetchRange(a.CF, from, now, a.Step); !samePoints(got, want) {
					t.Fatalf("%s: FetchRange(%v, step %v) differs from the reference", key, a.CF, a.Step)
				}
			}
		}
	}
	if !bytes.Equal(snapshotBytes(t, r.door), snapshotBytes(t, r.byKey)) {
		t.Error("checkpoint of the door pool differs from the pool written one Update(key) at a time")
	}
}

// TestUpdateHostWarmAllocsNothing gates the door's hot path: once a
// host's series exist, writing its whole report — 29 metrics, the
// standard gmond set's size — allocates nothing.
func TestUpdateHostWarmAllocsNothing(t *testing.T) {
	p := NewPool(DefaultSpec())
	batch := make([]Sample, 29)
	for i := range batch {
		batch[i] = Sample{Metric: "metric_" + strconv.Itoa(i), Value: float64(i)}
	}
	now := t0
	if err := p.UpdateHost("cluster", "compute-0-0", now, batch); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(15 * time.Second)
		err = p.UpdateHost("cluster", "compute-0-0", now, batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("warm UpdateHost of a %d-metric host allocates %.1f times, want 0", len(batch), allocs)
	}
	if up, rej := p.Stats(); up != 102*uint64(len(batch)) || rej != 0 {
		t.Errorf("Stats = (%d, %d), want (%d, 0)", up, rej, 102*len(batch))
	}
}

// TestUpdateHostConcurrent writes hosts through the door from several
// goroutines at once — two of them sharing every host, so their
// reports race for the same rows and instants — while readers fetch,
// enumerate and checkpoint. Under the race detector it checks the row
// index's locking; in any run, every offer must be counted exactly
// once, accepted or rejected.
func TestUpdateHostConcurrent(t *testing.T) {
	p := NewPoolShards(smallSpec(), 4)
	const writers, hosts, rounds, metrics = 4, 6, 40, 8
	batch := make([]Sample, metrics)
	for i := range batch {
		batch[i] = Sample{Metric: "m" + strconv.Itoa(i), Value: float64(i)}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				at := t0.Add(time.Duration(r) * 15 * time.Second)
				for h := 0; h < hosts; h++ {
					// Writers 0 and 1 share hosts h0..; 2 and 3 have their own.
					host := "h" + strconv.Itoa(h)
					if w >= 2 {
						host = "w" + strconv.Itoa(w) + "h" + strconv.Itoa(h)
					}
					_ = p.UpdateHost("c", host, at, batch) // shared: the door only reads it
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.Fetch("c/h0/m0", Average, t0, t0.Add(time.Hour))
			_ = p.SeriesHosts("c", "m3")
			_ = p.Len()
			var buf bytes.Buffer
			if err := p.WriteSnapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if want := 3 * hosts * metrics; p.Len() != want {
		t.Errorf("Len = %d, want %d", p.Len(), want)
	}
	up, rej := p.Stats()
	if offered := uint64(writers * rounds * hosts * metrics); up+rej != offered {
		t.Errorf("Stats = (%d, %d): %d offers counted, want %d", up, rej, up+rej, offered)
	}
	// Each round of a shared host is accepted once and rejected once.
	if want := uint64(3 * rounds * hosts * metrics); up != want {
		t.Errorf("accepted %d samples, want %d", up, want)
	}
}
