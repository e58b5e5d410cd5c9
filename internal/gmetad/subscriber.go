package gmetad

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"ganglia/internal/stream"
)

// This file is the subscriber side of the delta-subscription link: the
// state machine a source slot runs when its DataSource sets Subscribe.
//
// The ladder: connect → full-state sync → apply deltas in generation
// order. Any rung giving way — a refused dial, a generation gap, frame
// corruption, an unappliable delta, an idle timeout, a disconnect —
// tears the link down and the slot falls back to the proven poll path
// (safePoll sees no live cover and polls as it always has, breaker and
// SOURCE_HEALTH semantics untouched) while reconnects retry on jittered
// exponential backoff until a clean FULL resync succeeds.
//
// Correctness leans on the protocol, not on a parallel code path: every
// applied frame reassembles the child's exact poll answer bytes
// (stream.Ledger), which are parsed through the identical builder and
// published through the identical publishData as a poll — a subscribed
// slot and a polled slot cannot diverge except between a detected fault
// and the resync or fallback that ends it, and every such window is
// counted (StreamGaps, StreamResyncs, StreamFallbacks).

// subscriber states.
const (
	subIdle = iota
	subConnecting
	subStreaming
)

// subscriber is one slot's subscription state. It has its own lock —
// the poll gate reads it every round without touching the slot lock.
type subscriber struct {
	mu      sync.Mutex
	state   int
	fails   int       // consecutive failed stream attempts
	retryAt time.Time // next connect attempt (zero = now)
	gen     uint64    // last applied feed generation
	conn    net.Conn
	closed  bool
	rng     *rand.Rand
}

// status reports the link state for SourceStatus.
func (s *subscriber) status() (streaming bool, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == subStreaming, s.gen
}

// shut marks the subscriber permanently closed and cuts any live link.
func (s *subscriber) shut() {
	s.mu.Lock()
	s.closed = true
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// streamCovers is the poll gate: it reports whether a subscription link
// currently covers the slot (so the round's poll is skipped), and when
// the link is down and its backoff has lapsed, launches the next
// connect attempt.
func (g *Gmetad) streamCovers(slot *sourceSlot, now time.Time) bool {
	sub := slot.sub
	sub.mu.Lock()
	defer sub.mu.Unlock()
	switch {
	case sub.closed:
		return false
	case sub.state == subStreaming:
		return true
	case sub.state == subConnecting:
		// An attempt is in flight; poll anyway so a slow handshake
		// doesn't leave the slot unfed.
		return false
	}
	if !sub.retryAt.IsZero() && now.Before(sub.retryAt) {
		return false
	}
	sub.state = subConnecting
	g.subWG.Add(1)
	go g.runSubscriber(slot, sub)
	return false
}

// runSubscriber drives one subscription attempt end to end, with the
// poll path's panic isolation: a poisoned frame that crashes the parser
// fails this link, not the daemon.
func (g *Gmetad) runSubscriber(slot *sourceSlot, sub *subscriber) {
	defer g.subWG.Done()
	defer func() {
		if r := recover(); r != nil {
			g.acct.pollPanics.Add(1)
			g.subTeardown(slot, sub, fmt.Errorf("stream panic: %v", r))
		}
	}()
	g.subTeardown(slot, sub, g.streamOnce(slot, sub))
}

// streamOnce dials the source (same sticky, backoff-aware failover walk
// as the poll path), performs the FULL state sync, then applies frames
// until the link fails or ends. A nil return is a clean end (the child
// sent BYE, or we are shutting down); anything else is a fault.
func (g *Gmetad) streamOnce(slot *sourceSlot, sub *subscriber) error {
	now := g.cfg.Clock.Now()
	conn, addr, err := g.dialFailover(slot, now)
	if err != nil {
		return fmt.Errorf("stream dial: %w", err)
	}
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	sub.conn = conn
	sub.mu.Unlock()

	// From here every fault also charges the address, steering both the
	// next stream attempt and any interim polls at its siblings.
	fail := func(err error) error {
		g.noteAddrFailure(slot, addr, g.cfg.Clock.Now())
		return err
	}

	// One deadline over the whole handshake: dial-to-synced is bounded
	// like a poll download.
	if err := conn.SetDeadline(time.Now().Add(g.cfg.ReadTimeout)); err != nil {
		return fail(fmt.Errorf("stream deadline %s: %w", addr, err))
	}
	q := "/?filter=stream\n"
	if g.cfg.Mode == NLevel {
		q = "/?filter=stream-summary\n"
	}
	if _, err := io.WriteString(conn, q); err != nil {
		return fail(fmt.Errorf("subscribe %s: %w", addr, err))
	}

	cr := &countingReader{r: conn}
	br := bufio.NewReaderSize(cr, 64*1024)
	var counted int64
	readFrame := func(idle time.Duration) (*stream.Frame, error) {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return nil, err
		}
		f, err := stream.ReadFrame(br, int(g.cfg.MaxReportBytes))
		g.acct.bytesIn.Add(cr.n - counted)
		counted = cr.n
		return f, err
	}

	f, err := readFrame(g.cfg.ReadTimeout)
	if err != nil {
		g.noteStreamFault(err)
		return fail(fmt.Errorf("stream sync %s: %w", addr, err))
	}
	if f.Type != stream.FrameFull {
		g.acct.streamGaps.Add(1)
		return fail(fmt.Errorf("stream sync %s: expected full frame, got %s", addr, f.Type))
	}
	// The link's replica and its host memo live and die with this
	// attempt: a reconnect starts from a FULL sync and a cold memo.
	link := &streamLink{slot: slot, addr: addr, led: stream.NewLedger()}
	if err := g.applyStreamFrame(link, f, true); err != nil {
		g.acct.streamGaps.Add(1)
		return fail(fmt.Errorf("stream sync %s: %w", addr, err))
	}
	g.acct.streamFrames.Add(1)
	g.acct.streamResyncs.Add(1)
	sub.mu.Lock()
	sub.state = subStreaming
	sub.fails = 0
	sub.retryAt = time.Time{}
	sub.gen = f.Gen
	sub.mu.Unlock()
	g.logf("source %s subscribed via %s at generation %d", slot.cfg.Name, addr, f.Gen)

	for {
		f, err := readFrame(g.cfg.StreamIdleTimeout)
		if err != nil {
			g.noteStreamFault(err)
			return fail(fmt.Errorf("stream %s: %w", addr, err))
		}
		g.acct.streamFrames.Add(1)
		switch f.Type {
		case stream.FrameHeartbeat:
			continue
		case stream.FrameBye:
			return nil
		case stream.FrameFull:
			// A mid-stream FULL is an unsolicited resync; accept it.
			if err := g.applyStreamFrame(link, f, true); err != nil {
				g.acct.streamGaps.Add(1)
				return fail(fmt.Errorf("stream resync %s: %w", addr, err))
			}
			g.acct.streamResyncs.Add(1)
		case stream.FrameDelta:
			sub.mu.Lock()
			gen := sub.gen
			sub.mu.Unlock()
			if f.Prev != gen {
				g.acct.streamGaps.Add(1)
				return fail(fmt.Errorf("stream %s: generation gap (have %d, frame follows %d)", addr, gen, f.Prev))
			}
			if err := g.applyStreamFrame(link, f, false); err != nil {
				g.acct.streamGaps.Add(1)
				return fail(fmt.Errorf("stream apply %s: %w", addr, err))
			}
		}
		sub.mu.Lock()
		sub.gen = f.Gen
		sub.mu.Unlock()
	}
}

// noteStreamFault counts the faults the gap detector exists for:
// corruption, an oversized frame, or silence past the idle deadline —
// whether they hit during the handshake or mid-stream. A plain
// disconnect is not a gap; the link just ended and the teardown alone
// accounts for it.
func (g *Gmetad) noteStreamFault(err error) {
	if errors.Is(err, stream.ErrCorrupt) || errors.Is(err, stream.ErrTooLarge) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		g.acct.streamGaps.Add(1)
	}
}

// streamLink is the state one live subscription link owns, all of it
// touched by the link's goroutine alone: the byte replica of the child's
// report and the host memo of the last report ingested from it.
type streamLink struct {
	slot *sourceSlot
	addr string
	led  *stream.Ledger
	memo hostMemo
}

// applyStreamFrame advances the replica by one frame and publishes the
// result through the poll path's own machinery: the ledger reassembles
// the child's exact poll-answer bytes (into the memo's spare buffer),
// which enter through the same ingest a poll uses. The only
// stream-specific code is the reassembly — everything downstream is
// shared, by construction; what makes a delta cheap to apply is the
// memo, which finds every host the frame did not touch byte-identical.
func (g *Gmetad) applyStreamFrame(l *streamLink, f *stream.Frame, full bool) error {
	d, err := stream.DecodeDelta(f.Payload)
	if err != nil {
		return err
	}
	if err := l.led.Apply(d, full); err != nil {
		return err
	}
	report := l.led.Assemble(l.memo.spare[:0], footerBytes)
	if err := g.ingest(l.slot, l.addr, &l.memo, report, g.cfg.Clock.Now()); err != nil {
		return fmt.Errorf("reassembled report: %w", err)
	}
	return nil
}

// subTeardown ends one subscription attempt: the link is cut, the slot
// returns to the poll path's cover, and the next connect attempt is
// scheduled with jittered exponential backoff (a clean BYE retries on
// the base cadence without growing the failure streak).
func (g *Gmetad) subTeardown(slot *sourceSlot, sub *subscriber, err error) {
	now := g.cfg.Clock.Now()
	g.acct.streamFallbacks.Add(1)
	sub.mu.Lock()
	if sub.conn != nil {
		_ = sub.conn.Close()
		sub.conn = nil
	}
	wasStreaming := sub.state == subStreaming
	sub.state = subIdle
	if err == nil {
		sub.fails = 0
	} else {
		sub.fails++
	}
	if sub.rng == nil {
		sub.rng = rand.New(rand.NewSource(int64(hashName(slot.cfg.Name))<<1 ^ 0x53554253)) // "SUBS"
	}
	backoff := retryWindow(sub.fails, sub.rng)
	sub.retryAt = now.Add(backoff)
	closed := sub.closed
	sub.mu.Unlock()

	switch {
	case closed:
	case err == nil:
		g.logf("source %s stream ended by peer; poll fallback until resync", slot.cfg.Name)
	case wasStreaming:
		g.logf("source %s stream DOWN: %v (poll fallback, reconnect in ~%v)", slot.cfg.Name, err, backoff)
	default:
		g.logf("source %s stream connect failed: %v (poll fallback, retry in ~%v)", slot.cfg.Name, err, backoff)
	}
}

// closeSubscribers permanently stops every slot's subscription and
// waits for their goroutines — part of Drain and Close, ahead of the
// listener drain, so shutdown leaves no subscriber running.
func (g *Gmetad) closeSubscribers() {
	for _, slot := range g.order {
		if slot.sub != nil {
			slot.sub.shut()
		}
	}
	g.subWG.Wait()
}
