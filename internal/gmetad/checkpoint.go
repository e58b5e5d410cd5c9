package gmetad

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ganglia/internal/rrd"
)

// Crash-safe archive persistence. The paper's gmetad keeps every local
// cluster's full-resolution history in RRD files and serves the web
// frontend from them (§2.2); history that evaporates on a kill -9
// defeats the point of a monitor built to survive wide-area failure.
// This file implements the durability discipline around the framed
// snapshot format of internal/rrd:
//
//   - checkpoints are published as numbered generations
//     (<ArchivePath>.gen-<seq>), each written to a temp file, fsynced,
//     renamed into place, and made durable with a parent-directory
//     fsync — a torn write can only ever produce an unreferenced temp
//     file or a generation whose framing fails verification;
//   - recovery walks generations newest-first, quarantines any file
//     that fails verification (renamed to <ArchivePath>.corrupt-<seq>
//     for forensics), and falls back until a generation verifies or
//     the pool starts empty — startup never fails on bad archives;
//   - the background checkpointer runs off the poll loop on the
//     injected clock, with deterministic ±10% jitter so a fleet of
//     daemons sharing a cadence does not checkpoint in lockstep.

// checkpointGenerations is how many snapshot generations are retained:
// the newest is the restore candidate, the rest absorb torn writes and
// bit rot.
const checkpointGenerations = 3

// checkpointJitterFrac is the ± fraction of CheckpointInterval applied
// to each scheduled checkpoint.
const checkpointJitterFrac = 0.1

// genInfix separates the archive base path from a generation number.
const genInfix = ".gen-"

// tmpInfix marks in-flight checkpoint files; they are never restore
// candidates and are swept on startup.
const tmpInfix = ".tmp-"

// corruptInfix marks quarantined snapshots kept for forensics.
const corruptInfix = ".corrupt-"

// genPath names generation seq.
func (g *Gmetad) genPath(seq uint64) string {
	return fmt.Sprintf("%s%s%08d", g.cfg.ArchivePath, genInfix, seq)
}

// archiveCandidate is one restorable snapshot found on disk.
type archiveCandidate struct {
	path   string
	seq    uint64
	legacy bool // plain ArchivePath file from the pre-generation format
}

// scanArchiveDir lists restore candidates newest-first, sweeps stale
// temp files, and returns the highest generation number seen.
func (g *Gmetad) scanArchiveDir() (cands []archiveCandidate, maxSeq uint64) {
	dir := filepath.Dir(g.cfg.ArchivePath)
	base := filepath.Base(g.cfg.ArchivePath)
	names, err := g.cfg.FS.ReadDirNames(dir)
	if err != nil {
		// No directory yet: no candidates; the first checkpoint will
		// surface the real error if the path is unusable.
		return nil, 0
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, base+genInfix):
			seq, err := strconv.ParseUint(strings.TrimPrefix(name, base+genInfix), 10, 64)
			if err != nil {
				continue // foreign file that happens to share the prefix
			}
			cands = append(cands, archiveCandidate{path: filepath.Join(dir, name), seq: seq})
			if seq > maxSeq {
				maxSeq = seq
			}
		case strings.HasPrefix(name, base+tmpInfix):
			// A temp file is a checkpoint that never completed — a
			// crashed save's torn remains. Never a candidate; sweep it.
			_ = g.cfg.FS.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq > cands[j].seq })
	// The legacy single-file snapshot, if present, is the last resort.
	cands = append(cands, archiveCandidate{path: g.cfg.ArchivePath, legacy: true})
	return cands, maxSeq
}

// recoverArchives restores the pool from the newest generation that
// verifies. Corrupt and unreadable snapshots are quarantined and the
// next-older generation is tried; with no survivors the pool starts
// empty. It runs during New, before any poller or server exists.
func (g *Gmetad) recoverArchives() {
	cands, maxSeq := g.scanArchiveDir()
	g.ckptSeq = maxSeq + 1
	for _, c := range cands {
		pool, err := g.loadSnapshotFile(c.path)
		if err == nil {
			g.pool = pool
			g.acct.recoveredGenerations.Add(1)
			g.logf("restored archives from %s (%d series)", c.path, pool.Len())
			return
		}
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		g.quarantine(c, err)
	}
}

// quarantine renames a corrupt snapshot aside so it can never shadow
// an older good generation, while preserving the bytes for forensics.
func (g *Gmetad) quarantine(c archiveCandidate, cause error) {
	q := fmt.Sprintf("%s%s%08d", g.cfg.ArchivePath, corruptInfix, c.seq)
	if c.legacy {
		q = g.cfg.ArchivePath + corruptInfix + "legacy"
	}
	if err := g.cfg.FS.Rename(c.path, q); err != nil {
		// Even an unmovable corpse must not stop recovery; it simply
		// stays where it is and keeps failing verification.
		q = c.path + " (quarantine rename failed)"
	}
	g.acct.quarantinedSnapshots.Add(1)
	g.logf("archive snapshot %s failed verification (%v); quarantined as %s", c.path, cause, q)
}

// loadSnapshotFile reads one snapshot, trying the framed format first
// and falling back to the legacy whole-file gob stream.
func (g *Gmetad) loadSnapshotFile(path string) (*rrd.Pool, error) {
	f, err := g.cfg.FS.Open(path)
	if err != nil {
		return nil, err
	}
	pool, err := rrd.ReadSnapshot(f)
	_ = f.Close()
	if !errors.Is(err, rrd.ErrNotSnapshot) {
		return pool, err
	}
	lf, err := g.cfg.FS.Open(path)
	if err != nil {
		return nil, err
	}
	pool, err = rrd.LoadPool(lf)
	_ = lf.Close()
	return pool, err
}

// Checkpoint writes the archive pool to a new durable snapshot
// generation: encode to a temp file, fsync it, rename it to
// <ArchivePath>.gen-<seq>, fsync the parent directory, then prune
// generations beyond checkpointGenerations. A failure at any step
// leaves the previous generation authoritative — a half-written
// checkpoint is withdrawn, never published.
func (g *Gmetad) Checkpoint() error {
	if g.pool == nil {
		return fmt.Errorf("gmetad: archiving disabled")
	}
	if g.cfg.ArchivePath == "" {
		return fmt.Errorf("gmetad: no archive path configured")
	}
	g.ckptMu.Lock()
	defer g.ckptMu.Unlock()
	err := g.checkpointLocked()
	if err != nil {
		g.acct.checkpointFails.Add(1)
		g.logf("checkpoint failed: %v", err)
		return err
	}
	g.acct.checkpoints.Add(1)
	return nil
}

// checkpointLocked is Checkpoint's body, under ckptMu.
func (g *Gmetad) checkpointLocked() (err error) {
	var written bool
	timed(&g.acct.archive, func() { written, err = g.writeGeneration() })
	if err != nil || !written {
		return err
	}
	g.pruneGenerations(g.ckptSeq - 1)
	return nil
}

// writeGeneration publishes one generation with the full fsync
// discipline; it reports whether a generation was made durable.
func (g *Gmetad) writeGeneration() (bool, error) {
	fsys := g.cfg.FS
	seq := g.ckptSeq
	tmp := fmt.Sprintf("%s%s%08d", g.cfg.ArchivePath, tmpInfix, seq)
	f, err := fsys.Create(tmp)
	if err != nil {
		return false, fmt.Errorf("create %s: %w", tmp, err)
	}
	discard := func(cause error) (bool, error) {
		// Withdraw the partial file (best-effort: after a torn write
		// the disk may refuse even that; recovery sweeps stragglers).
		_ = fsys.Remove(tmp)
		return false, cause
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if err := g.pool.WriteSnapshot(bw); err != nil {
		_ = f.Close()
		return discard(fmt.Errorf("encode %s: %w", tmp, err))
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return discard(fmt.Errorf("write %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return discard(fmt.Errorf("sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return discard(fmt.Errorf("close %s: %w", tmp, err))
	}
	gen := g.genPath(seq)
	if err := fsys.Rename(tmp, gen); err != nil {
		return discard(fmt.Errorf("publish %s: %w", gen, err))
	}
	if err := fsys.SyncDir(filepath.Dir(g.cfg.ArchivePath)); err != nil {
		// The rename's durability is unknown; withdraw the generation
		// so recovery can never prefer a maybe-lost newest file over a
		// known-durable older one.
		_ = fsys.Remove(gen)
		return false, fmt.Errorf("sync dir for %s: %w", gen, err)
	}
	g.ckptSeq = seq + 1
	return true, nil
}

// pruneGenerations removes generations older than the retained window
// ending at newest. The legacy single-file snapshot and quarantined
// files are never touched.
func (g *Gmetad) pruneGenerations(newest uint64) {
	keep := uint64(checkpointGenerations)
	if newest < keep {
		return
	}
	cutoff := newest - keep + 1
	dir := filepath.Dir(g.cfg.ArchivePath)
	base := filepath.Base(g.cfg.ArchivePath)
	names, err := g.cfg.FS.ReadDirNames(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if !strings.HasPrefix(name, base+genInfix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, base+genInfix), 10, 64)
		if err != nil || seq >= cutoff {
			continue
		}
		_ = g.cfg.FS.Remove(filepath.Join(dir, name))
	}
}

// maybeCheckpoint runs the background checkpointer's schedule: when a
// jittered CheckpointInterval has elapsed on the injected clock, the
// pool is checkpointed. Failures are counted and logged; the schedule
// simply retries an interval later — a full disk now does not mean a
// full disk at the next deadline.
func (g *Gmetad) maybeCheckpoint(now time.Time) {
	if g.cfg.CheckpointInterval <= 0 || g.pool == nil || g.cfg.ArchivePath == "" {
		return
	}
	g.ckptMu.Lock()
	if g.ckptNext.IsZero() {
		// First round: anchor the schedule without saving, so a fleet
		// restart does not stampede the disks it just recovered from.
		g.ckptNext = now.Add(g.jitteredInterval())
		g.ckptMu.Unlock()
		return
	}
	if now.Before(g.ckptNext) {
		g.ckptMu.Unlock()
		return
	}
	g.ckptNext = now.Add(g.jitteredInterval())
	g.ckptMu.Unlock()
	_ = g.Checkpoint() // already counted and logged
}

// jitteredInterval spreads checkpoints ±10% around the configured
// cadence, deterministically per grid name. Callers hold
// ckptMu (ckptRng is not otherwise synchronized).
func (g *Gmetad) jitteredInterval() time.Duration {
	base := g.cfg.CheckpointInterval
	jitter := time.Duration((g.ckptRng.Float64()*2 - 1) * checkpointJitterFrac * float64(base))
	return base + jitter
}
