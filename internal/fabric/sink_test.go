package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/transport"
)

// recordSink collects every batch it is flushed; optionally failing or
// blocking under test control.
type recordSink struct {
	mu      sync.Mutex
	batches [][]Sample
	fail    bool
	gate    chan struct{} // when non-nil, Flush blocks until it closes
}

func (r *recordSink) Name() string { return "record" }

func (r *recordSink) Flush(batch []Sample) error {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return fmt.Errorf("record: induced failure")
	}
	r.batches = append(r.batches, batch)
	return nil
}

func (r *recordSink) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.batches {
		n += len(b)
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func samplesN(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Cluster: "c", Host: "h", Metric: fmt.Sprintf("m%d", i), Value: float64(i)}
	}
	return out
}

func TestSinkManagerDelivers(t *testing.T) {
	m := NewSinkManager(SinkConfig{})
	rs := &recordSink{}
	m.Add(rs)
	m.Offer(samplesN(10))
	waitFor(t, "delivery", func() bool { return rs.total() == 10 })
	if !m.Drain(5 * time.Second) {
		t.Fatal("Drain timed out")
	}
	s := m.Accounting().Snapshot()
	if s.Offered != 10 || s.SinkDrops != 0 || s.SinkFlushes == 0 {
		t.Errorf("accounting: %+v", s)
	}
}

func TestSinkManagerDropOldest(t *testing.T) {
	m := NewSinkManager(SinkConfig{QueueCap: 8, BatchSize: 4})
	rs := &recordSink{gate: make(chan struct{})}
	m.Add(rs)
	// Wake the flusher so it parks inside the gated Flush, then flood
	// the queue while nothing drains.
	m.Offer(samplesN(1))
	for i := 0; i < 10; i++ {
		m.Offer(samplesN(3))
	}
	s := m.Accounting().Snapshot()
	if s.QueueHighWater > 8 {
		t.Errorf("queue high water %d exceeds cap 8", s.QueueHighWater)
	}
	if s.SinkDrops == 0 {
		t.Error("flooding a gated sink dropped nothing")
	}
	// Conservation: everything offered is either dropped or still
	// queued or in the in-flight batch.
	close(rs.gate)
	if !m.Drain(5 * time.Second) {
		t.Fatal("Drain timed out")
	}
	s = m.Accounting().Snapshot()
	if got := int64(rs.total()) + s.SinkDrops; got != s.Offered {
		t.Errorf("delivered %d + dropped %d != offered %d", rs.total(), s.SinkDrops, s.Offered)
	}
	if rs.total() == 0 {
		t.Error("the sink received nothing once it recovered: every sample was dropped")
	}
}

func TestSinkManagerFailedFlushCountsDrops(t *testing.T) {
	m := NewSinkManager(SinkConfig{})
	rs := &recordSink{fail: true}
	m.Add(rs)
	m.Offer(samplesN(5))
	waitFor(t, "failure accounting", func() bool {
		s := m.Accounting().Snapshot()
		return s.SinkFlushFails > 0 && s.SinkDrops == 5
	})
	m.Close()
}

func TestSinkManagerPanicIsolated(t *testing.T) {
	m := NewSinkManager(SinkConfig{})
	m.Add(panicSink{})
	rs := &recordSink{}
	m.Add(rs)
	m.Offer(samplesN(3))
	waitFor(t, "healthy sink delivery", func() bool { return rs.total() == 3 })
	waitFor(t, "panic accounting", func() bool { return m.Accounting().Snapshot().SinkPanics == 1 })
	if !m.Drain(5 * time.Second) {
		t.Fatal("Drain timed out")
	}
}

type panicSink struct{}

func (panicSink) Name() string               { return "panic" }
func (panicSink) Flush(batch []Sample) error { panic("sink bug") }

// TestSinkFanoutChaos is the -race stress test of the egress fabric: a
// Carbon sink pointed at a target that refuses, hangs or drips under
// FaultNetwork chaos while producers flood the manager. The invariants:
// the bounded queue never exceeds its cap, every loss is a counted
// drop, and every flusher goroutine exits after Drain.
func TestSinkFanoutChaos(t *testing.T) {
	before := runtime.NumGoroutine()

	inner := transport.NewInMemNetwork()
	clk := clock.NewVirtual(time.Unix(1_057_000_000, 0))
	fn := transport.NewFaultNetwork(inner, 1, clk)

	// A healthy listener behind the faults, so hang/drip modes have a
	// real peer to accept.
	l, err := inner.Listen("carbon:2003")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cc := &carbonCollector{}
	go cc.serve(l)

	const queueCap = 64
	m := NewSinkManager(SinkConfig{QueueCap: queueCap, BatchSize: 16})
	m.Add(NewCarbonSink(fn, "carbon:2003", "", 200*time.Millisecond))
	m.Add(&PromSink{})

	// Phase 1: the target refuses every dial, so flushes must fail and
	// their samples must land in the drop counters, not vanish.
	fn.SetPlan("carbon:2003", transport.FaultPlan{Mode: transport.FaultRefuse})
	m.Offer(samplesN(7))
	waitFor(t, "refused flush accounting", func() bool {
		s := m.Accounting().Snapshot()
		return s.SinkFlushFails > 0 && s.SinkDrops > 0
	})

	// Phase 2: producers flood the manager while the fault mode churns
	// between refuse, hang and slow-drip.
	modes := []transport.FaultPlan{
		{Mode: transport.FaultRefuse},
		{Mode: transport.FaultHang},
		{Mode: transport.FaultSlowDrip},
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%10 == 0 {
					fn.SetPlan("carbon:2003", modes[(p+i)%len(modes)])
				}
				m.Offer(samplesN(7))
			}
		}(p)
	}
	wg.Wait()

	if !m.Drain(10 * time.Second) {
		t.Fatal("Drain timed out under chaos")
	}
	s := m.Accounting().Snapshot()
	if s.QueueHighWater > queueCap {
		t.Errorf("queue high water %d exceeds cap %d", s.QueueHighWater, queueCap)
	}
	if want := int64(4*50*7 + 7); s.Offered != want {
		t.Errorf("offered = %d, want %d", s.Offered, want)
	}
	if s.SinkFlushFails == 0 || s.SinkDrops == 0 {
		t.Errorf("chaos produced no counted failures: %+v", s)
	}
	if s.SinkPanics != 0 {
		t.Errorf("sink panics under chaos: %+v", s)
	}

	// Every flusher must be gone; give lingering collector goroutines a
	// moment to unwind before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
