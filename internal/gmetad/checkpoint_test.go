package gmetad

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ganglia/internal/rrd"
	"ganglia/internal/vfs"
)

// tinyArchive keeps crash-replay snapshots small enough to sweep every
// byte offset.
func tinyArchive() rrd.Spec {
	return rrd.Spec{
		Step:      15 * time.Second,
		Heartbeat: 60 * time.Second,
		Archives:  []rrd.ArchiveSpec{{Step: 15 * time.Second, Rows: 8, CF: rrd.Average}},
	}
}

// ckptGmetad builds a source-less archiving daemon over fsys; the pool
// is driven directly, so crash tests control every written byte.
func ckptGmetad(t *testing.T, path string, fsys vfs.FS) *Gmetad {
	t.Helper()
	r := newRig(t)
	g, err := New(Config{
		GridName: "g", Network: r.net, Clock: r.clk,
		Archive: true, ArchiveSpec: tinyArchive(), ArchivePath: path,
		FS: fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fillPool drives n updates into the pool, deterministically.
func fillPool(t *testing.T, g *Gmetad, start time.Time, n int, base float64) time.Time {
	t.Helper()
	now := start
	for i := 0; i < n; i++ {
		now = now.Add(15 * time.Second)
		for _, key := range []string{"c/n0/load_one", "c/n1/cpu_idle"} {
			if err := g.Pool().Update(key, now, base+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return now
}

// poolBytes is a pool's canonical snapshot serialization; WriteSnapshot
// is deterministic, so equal bytes mean equal durable state.
func poolBytes(t *testing.T, p *rrd.Pool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	names, err := vfs.OS{}.ReadDirNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCrashReplayCheckpoint is the crash-replay property test: a save
// killed at ANY byte offset must leave the last durable generation
// authoritative. For every offset k of a checkpoint's write stream, the
// write is torn at exactly k bytes (power loss), the daemon restarts
// on the real filesystem, and the recovered pool must byte-for-byte
// equal state A (the previous durable checkpoint) when the save failed,
// or state B (the new one) when k covered the full stream.
func TestCrashReplayCheckpoint(t *testing.T) {
	// Measure the write stream size of the state-B checkpoint once;
	// determinism makes it identical across runs.
	var total int64
	{
		dir := t.TempDir()
		fsys := vfs.NewFaultFS(vfs.OS{})
		g := ckptGmetad(t, filepath.Join(dir, "arch"), fsys)
		now := fillPool(t, g, t0, 6, 0)
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		fillPool(t, g, now, 6, 100)
		before := fsys.Written()
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		total = fsys.Written() - before
	}
	if total < 64 {
		t.Fatalf("checkpoint wrote only %d bytes; harness broken", total)
	}

	for k := int64(0); k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "arch")
		fsys := vfs.NewFaultFS(vfs.OS{})
		g := ckptGmetad(t, path, fsys)

		now := fillPool(t, g, t0, 6, 0)
		if err := g.Checkpoint(); err != nil {
			t.Fatalf("offset %d: durable checkpoint A: %v", k, err)
		}
		stateA := poolBytes(t, g.Pool())

		fillPool(t, g, now, 6, 100)
		stateB := poolBytes(t, g.Pool())

		fsys.CrashAfter(k)
		saveErr := g.Checkpoint()
		if k < total && saveErr == nil {
			t.Fatalf("offset %d of %d: torn save reported success", k, total)
		}
		if k == total && saveErr != nil {
			t.Fatalf("offset %d (full stream): save failed: %v", k, saveErr)
		}

		// Restart on the real filesystem: whatever survived on disk is
		// what recovery gets.
		g2 := ckptGmetad(t, path, vfs.OS{})
		got := poolBytes(t, g2.Pool())
		want := stateA
		if saveErr == nil {
			want = stateB
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d of %d (saveErr=%v): recovered pool is neither durable state", k, total, saveErr)
		}
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	g := ckptGmetad(t, path, vfs.OS{})
	now := t0
	for i := 0; i < 7; i++ {
		now = fillPool(t, g, now, 2, float64(i))
		if err := g.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"arch.gen-00000005", "arch.gen-00000006", "arch.gen-00000007"}
	got := listDir(t, dir)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("after 7 checkpoints dir holds %v, want %v", got, want)
	}
	if n := g.Accounting().Snapshot().Checkpoints; n != 7 {
		t.Fatalf("Checkpoints = %d, want 7", n)
	}
}

func TestRecoveryFallsBackAndQuarantines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	g := ckptGmetad(t, path, vfs.OS{})
	now := fillPool(t, g, t0, 4, 0)
	if err := g.Checkpoint(); err != nil { // gen-1 = state A
		t.Fatal(err)
	}
	stateA := poolBytes(t, g.Pool())
	fillPool(t, g, now, 4, 50)
	if err := g.Checkpoint(); err != nil { // gen-2 = state B
		t.Fatal(err)
	}

	// Rot a byte in the newest generation.
	gen2 := filepath.Join(dir, "arch.gen-00000002")
	data, err := os.ReadFile(gen2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(gen2, data, 0o644); err != nil {
		t.Fatal(err)
	}

	g2 := ckptGmetad(t, path, vfs.OS{})
	if got := poolBytes(t, g2.Pool()); !bytes.Equal(got, stateA) {
		t.Fatal("recovery did not fall back to the previous durable generation")
	}
	snap := g2.Accounting().Snapshot()
	if snap.QuarantinedSnapshots != 1 || snap.RecoveredGenerations != 1 {
		t.Fatalf("quarantined=%d recovered=%d, want 1/1", snap.QuarantinedSnapshots, snap.RecoveredGenerations)
	}
	if _, err := os.Stat(filepath.Join(dir, "arch.corrupt-00000002")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(gen2); !os.IsNotExist(err) {
		t.Error("corrupt generation still in place")
	}

	// The next checkpoint must not collide with the quarantined name's
	// old sequence: it continues past the highest seen.
	if err := g2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "arch.gen-00000003")); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
}

func TestRecoveryAllCorruptStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	g := ckptGmetad(t, path, vfs.OS{})
	now := fillPool(t, g, t0, 4, 0)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillPool(t, g, now, 4, 50)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range listDir(t, dir) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	g2 := ckptGmetad(t, path, vfs.OS{})
	if g2.Pool().Len() != 0 {
		t.Fatalf("pool has %d series after total corruption", g2.Pool().Len())
	}
	if got := g2.Accounting().Snapshot().QuarantinedSnapshots; got != 2 {
		t.Fatalf("QuarantinedSnapshots = %d, want 2", got)
	}
	// Life goes on: the empty daemon archives and checkpoints anew.
	fillPool(t, g2, t0, 2, 0)
	if err := g2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverySweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	g := ckptGmetad(t, path, vfs.OS{})
	fillPool(t, g, t0, 4, 0)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "arch.tmp-00000002")
	if err := os.WriteFile(stale, []byte("torn remains"), 0o644); err != nil {
		t.Fatal(err)
	}

	g2 := ckptGmetad(t, path, vfs.OS{})
	if g2.Pool().Len() == 0 {
		t.Fatal("stale temp file broke recovery")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not swept")
	}
	if got := g2.Accounting().Snapshot().QuarantinedSnapshots; got != 0 {
		t.Errorf("temp sweep counted as quarantine: %d", got)
	}
}

func TestCheckpointSyncDiscipline(t *testing.T) {
	// Each failure mode of the durability chain must fail the
	// checkpoint, withdraw the attempt, and leave the directory with
	// nothing but prior durable generations.
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	fsys := vfs.NewFaultFS(vfs.OS{})
	g := ckptGmetad(t, path, fsys)
	fillPool(t, g, t0, 4, 0)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	durable := listDir(t, dir)

	arm := []struct {
		name string
		set  func()
	}{
		{"sync", func() { fsys.FailSync(true) }},
		{"dirsync", func() { fsys.FailDirSync(true) }},
		{"rename", func() { fsys.FailRename(true) }},
		{"enospc", func() { fsys.SetQuota(10) }},
	}
	for _, tc := range arm {
		tc.set()
		if err := g.Checkpoint(); err == nil {
			t.Fatalf("%s: checkpoint succeeded under injected failure", tc.name)
		}
		fsys.Heal()
		got := listDir(t, dir)
		if strings.Join(got, ",") != strings.Join(durable, ",") {
			t.Fatalf("%s: withdrawal left %v, want %v", tc.name, got, durable)
		}
	}
	snap := g.Accounting().Snapshot()
	if snap.CheckpointFails != int64(len(arm)) {
		t.Errorf("CheckpointFails = %d, want %d", snap.CheckpointFails, len(arm))
	}
	// Healed disk: the checkpointer recovers on the next attempt.
	if err := g.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
}

func TestCheckpointDuringUpdates(t *testing.T) {
	// Updates racing a checkpoint (the production shape: the poll loop
	// archives while the checkpointer encodes) must be safe under the
	// race detector, and every checkpoint must verify on read-back.
	dir := t.TempDir()
	path := filepath.Join(dir, "arch")
	g := ckptGmetad(t, path, vfs.OS{})

	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := t0
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(15 * time.Second)
			_ = g.Pool().Update("c/n0/load_one", now, float64(i))
			_ = g.Pool().Update("c/n1/cpu_idle", now, float64(-i))
			if i == 0 {
				close(started)
			}
		}
	}()
	// Checkpoint only once the series exist: otherwise all 25 can
	// finish before the updater first runs and save an empty pool.
	<-started
	for i := 0; i < 25; i++ {
		if err := g.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	g2 := ckptGmetad(t, path, vfs.OS{})
	if g2.Accounting().Snapshot().QuarantinedSnapshots != 0 {
		t.Fatal("a live-updated checkpoint failed verification")
	}
	if g2.Pool().Len() == 0 {
		t.Fatal("nothing recovered")
	}
}

func TestCheckpointSchedule(t *testing.T) {
	// The background checkpointer runs off the poll loop on the
	// injected clock: nothing saves before the jittered interval
	// (within ±10% of 60s), and a save lands once it elapses.
	r := newRig(t)
	path := filepath.Join(t.TempDir(), "arch")
	g, err := New(Config{
		GridName: "g", Network: r.net, Clock: r.clk,
		Archive: true, ArchiveSpec: tinyArchive(), ArchivePath: path,
		CheckpointInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillPool(t, g, t0, 4, 0)

	g.PollOnce(r.clk.Now()) // anchors the schedule, saves nothing
	if n := g.Accounting().Snapshot().Checkpoints; n != 0 {
		t.Fatalf("checkpoint before any interval elapsed (%d)", n)
	}
	// Jitter bounds the first save to (54s, 66s] after the anchor.
	for elapsed := time.Duration(0); elapsed < 54*time.Second; {
		r.clk.Advance(15 * time.Second)
		elapsed += 15 * time.Second
		if elapsed >= 54*time.Second {
			break
		}
		g.PollOnce(r.clk.Now())
	}
	if n := g.Accounting().Snapshot().Checkpoints; n != 0 {
		t.Fatalf("checkpoint fired before the jitter floor (%d)", n)
	}
	for i := 0; i < 2; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	if n := g.Accounting().Snapshot().Checkpoints; n != 1 {
		t.Fatalf("Checkpoints = %d after interval elapsed, want 1", n)
	}
	if _, err := os.Stat(path + ".gen-00000001"); err != nil {
		t.Fatalf("scheduled checkpoint produced no generation: %v", err)
	}

	// The schedule re-arms: another interval, another save.
	for i := 0; i < 5; i++ {
		r.clk.Advance(15 * time.Second)
		g.PollOnce(r.clk.Now())
	}
	if n := g.Accounting().Snapshot().Checkpoints; n < 2 {
		t.Fatalf("Checkpoints = %d after second interval, want >= 2", n)
	}
}

func TestDrainCompletes(t *testing.T) {
	r := newRig(t)
	r.cluster("meteor", "meteor:8649", 3, 1)
	g := r.gmetad(Config{
		GridName: "SDSC",
		Sources:  []DataSource{{Name: "meteor", Kind: SourceGmond, Addrs: []string{"meteor:8649"}}},
	}, "gmetad:8652")
	r.clk.Advance(15 * time.Second)
	g.PollOnce(r.clk.Now())
	if _, err := r.ask("gmetad:8652", "/meteor"); err != nil {
		t.Fatal(err)
	}

	if !g.Drain(time.Second) {
		t.Fatal("drain with no in-flight work timed out")
	}
	// Drained means no longer accepting.
	if _, err := r.ask("gmetad:8652", "/meteor"); err == nil {
		t.Fatal("query accepted after drain")
	}
	g.Close() // must return promptly after a clean drain
}

func TestDrainTimeoutAbandonsStragglers(t *testing.T) {
	r := newRig(t)
	g := r.gmetad(Config{
		GridName:         "g",
		QueryReadTimeout: 500 * time.Millisecond,
	}, "gmetad:8652")

	// A client that connects and never sends its query line pins a
	// handler until its read deadline.
	conn, err := r.net.Dial("gmetad:8652")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the accept loop hand the conn to a handler before draining:
	// the handler holds a semaphore slot while it waits for the line.
	deadline := time.Now().Add(2 * time.Second)
	for len(g.sem) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(g.sem) == 0 {
		t.Fatal("handler never picked up the connection")
	}

	start := time.Now()
	if g.Drain(10 * time.Millisecond) {
		t.Fatal("drain reported success with a pinned handler")
	}
	// Close must not wait for the abandoned handler.
	g.Close()
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("Close hung %v on an abandoned handler", took)
	}
}
