package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ganglia/internal/transport"
)

// smokePhases are the 1-second phases of the tier-1 smoke runs.
var smokePhases = phasesFor(1400 * time.Millisecond)

// TestSmokeEmitsEveryMetric runs every workload at smoke size, timed and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, under legal names, with nothing failing.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("stands four live trees up; skipped in -short mode")
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	outDir := t.TempDir()
	for _, w := range smokeWorkloads() {
		cfg := runConfig{spec: w, seed: 7, phases: smokePhases, setups: 2, replayBudget: 5 * time.Millisecond, outDir: outDir}
		for _, trace := range []bool{false, true} {
			cfg.trace = trace
			run, defs := timedRun, endToEnd
			if trace {
				run, defs = tracedRun, perLayer
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d defined", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.Name, trace, d.Name)
				case !nameOK.MatchString(d.Name):
					t.Errorf("metric name %q is outside the allowed charset", d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: unit %q, defined as %q", d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s (trace %v): %s is %v", w.Name, trace, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.Name, d.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
				streams := res.Metrics["stream.frames_per_round"].Value
				if w.Subscribe != (streams > 0) {
					t.Errorf("%s: stream.frames_per_round = %v with Subscribe=%v", w.Name, streams, w.Subscribe)
				}
			}
		}
	}
}

// TestManifestMatchesFile checks that BENCHMARK.json is what this
// program's definitions imply, and that it stays inside the harness's
// limits.
func TestManifestMatchesFile(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameOK.MatchString(n) || seen[n] {
			t.Errorf("name %q is illegal or used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitOK.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the limits", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitOK.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the limits", m)
		}
	}
	runs := 4 + 22*len(doc.Workloads)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || runs*doc.RunSeconds > 3420 {
		t.Errorf("run_seconds %d: %d runs cannot fit 3420 s", doc.RunSeconds, runs)
	}
}

func TestPercentileHelper(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {60, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}} {
		v, beyond := percentile(xs, c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.value, c.beyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spreadShare(xs); got != 1 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

// TestOpenLoopTimesFromDue stalls a fake server on one request and
// checks that the operations queued behind it carry the wait in their
// latency and in the generator's lateness, while their due times stay
// on the fixed schedule.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		stall  = 80 * time.Millisecond
		n      = 12
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { // the fake server: answers at once, except request 2
		for i := 0; ; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if i == 2 {
				time.Sleep(stall)
			}
			_, _ = c.Write([]byte("ok"))
			c.Close()
		}
	}()
	begin := wallNow()
	ops := openLoops(begin, begin.Add(time.Minute), schedule{period, n, func(int, time.Time) bool {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return false
		}
		defer c.Close()
		_, err = io.ReadAll(c)
		return err == nil
	}})[0]
	for i, o := range ops {
		if o.failed || o.due != time.Duration(i)*period {
			t.Fatalf("op %d: failed=%v due=%v", i, o.failed, o.due)
		}
	}
	lat, late := latencies(ops), lateness(ops)
	if lat[0] > stall/2 || late[0] > stall/2 {
		t.Errorf("op 0 before the stall: latency %v, late %v", lat[0], late[0])
	}
	// Op 3 was due 10 ms after op 2 but could only start once the stall
	// had passed.
	if want := stall - 2*period; lat[3] < want || late[3] < want {
		t.Errorf("op 3 behind the stall: latency %v, late %v, want at least %v", lat[3], late[3], want)
	}
	p90, _ := percentile(sortedCopy(durationsMs(late)), 90)
	if p90 < ms(stall)/4 {
		t.Errorf("lateness p90 = %.1f ms; the stall did not show", p90)
	}
}

// Two schedules share the one driver goroutine: operations run in order
// of due time (ties to the first schedule), and one that falls due while
// another runs waits for it without its due instant moving.
func TestOpenLoopsInterleaveByDueTime(t *testing.T) {
	const period = 5 * time.Millisecond
	var order []string
	begin := wallNow()
	out := openLoops(begin, begin.Add(time.Minute),
		schedule{2 * period, 2, func(i int, _ time.Time) bool {
			order = append(order, fmt.Sprint("a", i))
			if i == 0 {
				time.Sleep(3 * period)
			}
			return true
		}},
		schedule{period, 4, func(i int, _ time.Time) bool {
			order = append(order, fmt.Sprint("b", i))
			return true
		}})
	if got, want := strings.Join(order, " "), "a0 b0 b1 a1 b2 b3"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	for i, o := range out[1] {
		if o.due != time.Duration(i)*period {
			t.Errorf("b%d due at %v", i, o.due)
		}
	}
	if lat := latencies(out[1]); lat[0] < 3*period || lat[1] < 2*period {
		t.Errorf("b0 and b1 waited for a0: latencies %v", lat[:2])
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 100},
		{Name: "poll", Parent: 0, Start: 10, End: 30},
		{Name: "poll", Parent: 0, Start: 20, End: 50}, // overlaps its sibling
		{Name: "parse", Parent: 1, Start: 12, End: 18},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 6, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	totals := totalsByName(spans)
	if p := totals["poll"]; p.Count != 2 || p.Total != 50 || p.SelfNs != 44 {
		t.Errorf("poll totals = %+v", p)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 1, -1))
	if tr.closed() != nil {
		t.Error("a nil tracer recorded spans")
	}
	live := newTracer()
	outer := live.begin("outer", 1, -1)
	inner := live.begin("inner", 1, outer)
	live.end(inner)
	if got := live.closed(); len(got) != 1 || got[0].Name != "inner" || got[0].Parent != outer {
		t.Errorf("closed spans = %+v, want the inner span only", got)
	}
}

// TestCountingNetworkCountsExactBytes sends a known number of bytes each
// way through the wrapper.
func TestCountingNetworkCountsExactBytes(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const up, down = 1000, 2500
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := io.ReadFull(c, make([]byte, up)); err != nil {
			return
		}
		_, _ = c.Write(make([]byte, down))
	}()
	counters := &netCounters{}
	cn := &countingNet{
		inner: &transport.TCPNetwork{}, counters: counters,
		classOf: map[string]edgeClass{l.Addr().String(): edgeWAN}, fallback: edgeView,
	}
	c, err := cn.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, up)); err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, c); err != nil || n != down {
		t.Fatalf("read %d bytes, %v", n, err)
	}
	c.Close()
	wan := counters.snapshot(edgeWAN)
	if wan.Bytes != up+down || wan.Conns != 1 || wan.Dial <= 0 {
		t.Errorf("WAN edge counted %+v, want %d bytes on 1 connection", wan, up+down)
	}
	if other := counters.snapshot(edgeView); other.Bytes != 0 || other.Conns != 0 {
		t.Errorf("view edge counted %+v, want nothing", other)
	}
	if _, err := cn.Dial("127.0.0.1:1"); err == nil {
		t.Error("dial of a closed port succeeded")
	} else if got := counters.snapshot(edgeView).Conns; got != 0 {
		t.Errorf("a failed dial counted as %d connections", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want verdict
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, verdictOK},
		{lower, steady, []float64{115, 114, 116, 115, 115}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK},
		{higher, steady, []float64{85, 84, 86, 85, 85}, verdictWorse},
		{higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{lower, steady, []float64{70, 130, 100, 60, 140}, verdictUnresolved},
		{failRatio, []float64{0, 0}, []float64{0, 0}, verdictOK},
		{failRatio, []float64{0, 0}, []float64{0.01, 0.01}, verdictWorse},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
