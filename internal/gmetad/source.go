package gmetad

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"time"

	"ganglia/internal/gxml"
)

// ErrReportTooLarge marks a poll that was cut off because the source
// streamed more than Config.MaxReportBytes. It is distinct from parse
// errors so operators can tell a bloated report from a malformed one.
var ErrReportTooLarge = errors.New("source report exceeds MaxReportBytes")

// safePoll runs one poll with the breaker gate and panic isolation: a
// poisoned report that crashes the parser (or any downstream phase)
// fails that source's round instead of killing the daemon.
func (g *Gmetad) safePoll(slot *sourceSlot, now time.Time) {
	defer func() {
		if r := recover(); r != nil {
			g.acct.pollPanics.Add(1)
			g.sourceFailed(slot, now, fmt.Errorf("poll panic: %v", r))
		}
	}()
	if slot.sub != nil && g.streamCovers(slot, now) {
		// A live subscription link feeds this slot continuously; polling
		// it would duplicate work. The moment the link degrades, the
		// cover lapses and the proven poll path resumes here — from a
		// cold memo: the report it last polled is not worth retaining.
		slot.memo = hostMemo{}
		return
	}
	if g.breakerDefers(slot, now) {
		return
	}
	g.pollSource(slot, now)
}

// breakerDefers reports whether the source's circuit breaker holds this
// round. Deferred rounds still write zero records, so the archives keep
// their unambiguous time-of-death signature while the breaker is open.
func (g *Gmetad) breakerDefers(slot *sourceSlot, now time.Time) bool {
	slot.mu.RLock()
	due := slot.nextPollAt
	data := slot.data
	slot.mu.RUnlock()
	if due.IsZero() || !now.Before(due) {
		return false
	}
	g.acct.breakerSkips.Add(1)
	// The retained snapshot keeps aging while the breaker holds.
	g.reAge(slot, now)
	if g.pool != nil && data != nil {
		timed(&g.acct.archive, func() {
			slot.memo.samples = g.zeroFill(data, slot.memo.samples, now)
		})
	}
	return true
}

// pollSource polls one data source: dial with failover, download and
// parse the report, summarize, archive, and publish the new snapshot.
// On total failure the previous snapshot is retained (its soft-state
// ages mark everything stale) and zero records are written to the
// archives — the paper's downtime forensics (§2.1). Failed sources are
// retried on every polling round, so "failures do not cause permanent
// fissures in the monitoring tree".
func (g *Gmetad) pollSource(slot *sourceSlot, now time.Time) {
	g.acct.polls.Add(1)

	conn, addr, err := g.dialFailover(slot, now)
	if err != nil {
		g.sourceFailed(slot, now, err)
		return
	}
	defer conn.Close()
	// Bound the whole exchange: a source that connects but stalls is a
	// remote failure, detected by timeout like any link failure. A conn
	// that cannot take the deadline is as dead as one that refused.
	if err := conn.SetDeadline(time.Now().Add(g.cfg.ReadTimeout)); err != nil {
		g.noteAddrFailure(slot, addr, now)
		g.sourceFailed(slot, now, fmt.Errorf("set deadline %s: %w", addr, err))
		return
	}

	// A child gmetad expects a query line; in N-level mode we ask for
	// the O(m) summary form of its subtree, in 1-level mode for the
	// full tree (the legacy union-reporting behaviour under test).
	if slot.cfg.Kind == SourceGmetad {
		q := "/\n"
		if g.cfg.Mode == NLevel {
			q = "/?filter=summary\n"
		}
		if _, err := io.WriteString(conn, q); err != nil {
			g.noteAddrFailure(slot, addr, now)
			g.sourceFailed(slot, now, fmt.Errorf("send query %s: %w", addr, err))
			return
		}
	}

	var doc []byte
	timed(&g.acct.downloadParse, func() {
		cr := &countingReader{r: conn}
		capped := &cappedReader{r: cr, remaining: g.cfg.MaxReportBytes}
		doc, err = gxml.ReadReport(capped, slot.memo.spare)
		g.acct.bytesIn.Add(cr.n)
		// When the cap is what cut the stream, say so distinctly.
		if err != nil && capped.remaining <= 0 {
			err = fmt.Errorf("%w (cap %d): %v", ErrReportTooLarge, g.cfg.MaxReportBytes, err)
		}
	})
	if err != nil {
		slot.memo.spare = doc
	} else {
		err = g.ingest(slot, addr, &slot.memo, doc, now)
	}
	if err != nil {
		if errors.Is(err, ErrReportTooLarge) {
			g.acct.oversizeReports.Add(1)
		}
		// A report that dials fine but cannot be downloaded or parsed
		// still charges the address: backoff steers the next round at
		// its siblings.
		g.noteAddrFailure(slot, addr, now)
		g.sourceFailed(slot, now, fmt.Errorf("parse %s: %w", addr, err))
	}
}

// ingest is the one door a report enters through, whichever link
// carried it: a poll hands in what it downloaded, a subscription what
// its ledger reassembled. The report is parsed against the link's host
// memo (HOST elements byte-identical to the link's previous report are
// reused, not tokenized), summarized, archived and published. On
// success the memo advances to this report and owns doc; on a parse
// error the memo keeps what it had, doc goes back to it as the spare
// buffer, and nothing is published.
func (g *Gmetad) ingest(slot *sourceSlot, addr string, memo *hostMemo, doc []byte, now time.Time) error {
	b := newBuilder(slot.cfg, now, g.cfg.Mode != OneLevel, memo)
	var err error
	timed(&g.acct.downloadParse, func() {
		err = gxml.ParseBytes(doc, b.handler())
	})
	g.acct.hostsParsed.Add(b.parsed)
	g.acct.hostsReused.Add(b.reused)
	if err != nil {
		memo.spare = doc
		return err
	}
	memo.advance(doc, b.seen)

	var data *sourceData
	timed(&g.acct.summarize, func() {
		data = b.finish()
	})
	if g.pool != nil {
		timed(&g.acct.archive, func() {
			memo.samples = g.archiveSource(data, memo.samples, now)
		})
	}
	g.publishData(slot, addr, data, now)
	return nil
}

// publishData installs a freshly parsed snapshot and performs the
// success bookkeeping both ingest paths share — the poll path and the
// subscription link apply state through the same door, so health,
// breaker and failover semantics cannot diverge between them: the
// slate is cleared (address backoff, breaker streak, stretched
// cadence) and the epoch bump retires stale cached responses. Nothing
// is rendered or folded here: the snapshot's first reader builds its
// fragment, and the grid summary is folded when it is read.
func (g *Gmetad) publishData(slot *sourceSlot, addr string, data *sourceData, now time.Time) {
	slot.mu.Lock()
	slot.install(data)
	recovered := slot.failed
	var wasDown time.Duration
	if recovered {
		wasDown = now.Sub(slot.downSince)
		slot.failed = false
		slot.downSince = time.Time{}
	}
	slot.lastErr = nil
	movedFrom := ""
	if slot.activeAddr != "" && slot.activeAddr != addr {
		movedFrom = slot.activeAddr
	}
	slot.activeAddr = addr
	// Success clears the slate: the address's backoff, the breaker's
	// failure streak, and any stretched cadence.
	if h := slot.health[addr]; h != nil {
		h.fails, h.retryAt = 0, time.Time{}
	}
	slot.consecFails = 0
	slot.nextPollAt = time.Time{}
	breakerClosed := slot.breakerOpen
	slot.breakerOpen = false
	slot.mu.Unlock()

	if movedFrom != "" {
		g.acct.failovers.Add(1)
	}

	// The new snapshot is visible; retire every cached response built
	// from the previous epoch. Ordering matters: install first, bump
	// second, so a query that observes the new epoch always renders (and
	// folds the grid summary) from at least the new snapshot.
	g.bumpEpoch()
	g.emitFabricSamples(data, now)

	if breakerClosed {
		g.logf("source %s breaker closed", slot.cfg.Name)
	}
	if recovered {
		g.logf("source %s recovered via %s after %v down", slot.cfg.Name, addr, wasDown)
	} else if movedFrom != "" {
		g.logf("source %s failed over %s -> %s", slot.cfg.Name, movedFrom, addr)
	}
}

// reAge republishes the slot's snapshot with its soft-state age
// re-baked: failed and breaker-deferred rounds advance the age the
// serialized TN values carry, so stale data keeps presenting as stale
// without a per-request deep copy. The republished snapshot shares the
// old one's maps and slices (they are immutable after publication);
// only the top-level struct, its epoch, its (unbuilt) fragment cell and
// the epoch bump are new. A round where the whole-second age is
// unchanged republishes nothing, so an idle clock does not churn the
// cache.
func (g *Gmetad) reAge(slot *sourceSlot, now time.Time) {
	slot.mu.Lock()
	data := slot.data
	if data == nil {
		slot.mu.Unlock()
		return
	}
	age := ageSince(now, data.polled)
	if age == data.age {
		slot.mu.Unlock()
		return
	}
	aged := *data
	aged.age = age
	slot.install(&aged)
	slot.mu.Unlock()

	g.bumpEpoch()
}

// dialFailover walks the source's address list and returns the first
// connection established. Every gmond agent holds redundant global
// cluster state, so any responder yields the complete report — the
// automatic failover of paper fig 1. The walk is sticky (the last-good
// address goes first) and backoff-aware: addresses inside their backoff
// window are passed over while a sibling is eligible, but when every
// address is backing off the one due soonest is probed anyway — backoff
// reorders the walk, it never abandons a source. On total failure the
// returned error joins each address's individual failure.
func (g *Gmetad) dialFailover(slot *sourceSlot, now time.Time) (net.Conn, string, error) {
	slot.mu.RLock()
	order := make([]string, 0, len(slot.cfg.Addrs))
	if slot.activeAddr != "" {
		order = append(order, slot.activeAddr)
	}
	for _, a := range slot.cfg.Addrs {
		if a != slot.activeAddr {
			order = append(order, a)
		}
	}
	var eligible []string
	var skipped []string
	var skippedAt []time.Time
	for _, a := range order {
		if h := slot.health[a]; h != nil && h.retryAt.After(now) {
			skipped = append(skipped, a)
			skippedAt = append(skippedAt, h.retryAt)
			continue
		}
		eligible = append(eligible, a)
	}
	slot.mu.RUnlock()

	if len(eligible) == 0 {
		// Probe-one rule: all addresses are backing off, so dial the
		// one whose window expires soonest rather than skipping the
		// round entirely.
		best := 0
		for i := 1; i < len(skipped); i++ {
			if skippedAt[i].Before(skippedAt[best]) {
				best = i
			}
		}
		eligible = append(eligible, skipped[best])
		skipped = append(skipped[:best], skipped[best+1:]...)
		skippedAt = append(skippedAt[:best], skippedAt[best+1:]...)
	}
	g.acct.backoffs.Add(int64(len(skipped)))

	var errs []error
	for _, addr := range eligible {
		conn, err := g.cfg.Network.Dial(addr)
		if err == nil {
			return conn, addr, nil
		}
		g.acct.addrDialFails.Add(1)
		g.noteAddrFailure(slot, addr, now)
		errs = append(errs, fmt.Errorf("%s: %w", addr, err))
	}
	for i, addr := range skipped {
		errs = append(errs, fmt.Errorf("%s: backing off until %s", addr, skippedAt[i].Format(time.RFC3339)))
	}
	return nil, "", fmt.Errorf("all %d addresses failed: %w", len(slot.cfg.Addrs), errors.Join(errs...))
}

// noteAddrFailure charges one failure (dial, handshake, or parse) to an
// address and extends its backoff window (see retryWindow). While an
// address backs off the poller prefers its siblings; when every address
// of a source is backing off, the one due soonest is still probed.
func (g *Gmetad) noteAddrFailure(slot *sourceSlot, addr string, now time.Time) {
	slot.mu.Lock()
	defer slot.mu.Unlock()
	h := slot.healthOf(addr)
	h.fails++
	if slot.rng == nil {
		slot.rng = rand.New(rand.NewSource(int64(hashName(slot.cfg.Name))))
	}
	h.retryAt = now.Add(retryWindow(h.fails, slot.rng))
}

// retryWindow is the wait before the next attempt after fails
// consecutive failures, on a poll address and a subscription link
// alike: addrBackoffBase doubled per failure after the first, capped at
// addrBackoffMax, with ±20 % jitter drawn from rng so replicas that died
// together do not retry in lockstep. Zero failures (a clean end) waits
// the base window.
func retryWindow(fails int, rng *rand.Rand) time.Duration {
	backoff := addrBackoffBase
	for i := 1; i < fails && backoff < addrBackoffMax; i++ {
		backoff *= 2
	}
	backoff = min(backoff, addrBackoffMax)
	return time.Duration(float64(backoff) * (0.8 + 0.4*rng.Float64()))
}

// sourceFailed records a poll failure and writes zero records for every
// series this source feeds, so the archives show an unambiguous
// time-of-death signature instead of a silent gap. Past
// BreakerThreshold consecutive failures the source's circuit breaker
// opens, stretching its poll cadence exponentially up to
// breakerStretchPolls rounds — a fully dead source costs less each
// round but is never abandoned.
func (g *Gmetad) sourceFailed(slot *sourceSlot, now time.Time, err error) {
	g.acct.pollFails.Add(1)
	slot.mu.Lock()
	slot.lastErr = err
	firstFailure := !slot.failed
	if firstFailure {
		slot.failed = true
		slot.downSince = now
	}
	slot.consecFails++
	tripped := false
	var stretch time.Duration
	maxStretch := breakerStretchPolls * g.cfg.PollInterval
	if g.cfg.BreakerThreshold > 0 && slot.consecFails >= g.cfg.BreakerThreshold {
		over := slot.consecFails - g.cfg.BreakerThreshold
		stretch = 2 * g.cfg.PollInterval
		for i := 0; i < over && stretch < maxStretch; i++ {
			stretch *= 2
		}
		stretch = min(stretch, maxStretch)
		slot.nextPollAt = now.Add(stretch)
		tripped = !slot.breakerOpen
		slot.breakerOpen = true
	}
	data := slot.data
	slot.mu.Unlock()

	// The retained snapshot's data is now one round older; republish it
	// re-aged so responses carry honest TN values.
	g.reAge(slot, now)

	if firstFailure {
		// The source's health state changed; cached responses carrying
		// its SOURCE_HEALTH attributes are stale now.
		g.bumpEpoch()
		g.logf("source %s DOWN: %v (retrying every poll)", slot.cfg.Name, err)
	}
	if tripped {
		g.acct.breakerTrips.Add(1)
		g.logf("source %s breaker OPEN after %d consecutive failures; cadence stretched to %v (cap %v)",
			slot.cfg.Name, g.cfg.BreakerThreshold, stretch, maxStretch)
	}

	if g.pool == nil || data == nil {
		return
	}
	timed(&g.acct.archive, func() {
		slot.memo.samples = g.zeroFill(data, slot.memo.samples, now)
	})
}

// hashName folds a source name into a jitter-seed component (FNV-1a).
func hashName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// countingReader tracks download volume.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// cappedReader enforces MaxReportBytes. io.LimitReader would end the
// stream with a clean EOF that parses as "truncated XML"; the distinct
// error here tells an oversized report apart from a malformed one.
type cappedReader struct {
	r         io.Reader
	remaining int64
}

func (cr *cappedReader) Read(p []byte) (int, error) {
	if cr.remaining <= 0 {
		return 0, ErrReportTooLarge
	}
	if int64(len(p)) > cr.remaining {
		p = p[:cr.remaining]
	}
	n, err := cr.r.Read(p)
	cr.remaining -= int64(n)
	return n, err
}
