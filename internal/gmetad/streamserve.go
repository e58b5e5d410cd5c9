package gmetad

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/gxml"
	"ganglia/internal/query"
	"ganglia/internal/stream"
)

// This file is the producer side of the delta-subscription link: the
// ?filter=stream handler that turns the zero-copy serve pipeline's
// immutable snapshots into a persistent feed of generation-tagged
// frames. A subscriber gets one FULL state sync, then a DELTA per epoch
// bump carrying only the bytes that changed between two consecutive
// captures — the diff runs over the per-source fragments the serve path
// shares (the feed builds a snapshot's fragment when it is the first to
// read it), through the byte spans recorded at render time, so
// producing a delta re-serializes nothing.

// streamSet tracks the long-lived subscription and watch connections so
// Drain and Close can end them. The handlers themselves are reaped
// through the ordinary listener WaitGroup; this set only provides the
// wake-up signal that makes them exit.
type streamSet struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]chan struct{}
}

// add registers a connection and returns its shutdown channel; ok is
// false when the daemon is already draining.
func (s *streamSet) add(c net.Conn) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]chan struct{})
	}
	done := make(chan struct{})
	s.conns[c] = done
	return done, true
}

func (s *streamSet) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// shutdown signals every registered connection and refuses new ones.
func (s *streamSet) shutdown() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, done := range conns {
		close(done)
	}
}

// feedView is one generation of the subscription feed: a consistent
// capture of the material a depth-0 query of this daemon would return,
// held as references into the immutable snapshots and fragments of the
// zero-copy pipeline.
type feedView struct {
	epoch       uint64
	summaryForm bool
	header      []byte
	health      []byte
	summary     []byte // summary form replaces the slot sections
	slots       []feedSlot
}

// feedSlot pins one source's snapshot and fragment for diffing.
type feedSlot struct {
	name string
	kind SourceKind
	data *sourceData
	frag *sourceFragment
}

// captureFeed takes one feed generation. The epoch is read before the
// slot views, mirroring the response cache's ordering: a frame can only
// ever be tagged with an epoch at or below its content's freshness, so
// a racing publish forces one more (possibly empty) delta instead of
// ever letting tagged content lag its tag.
func (g *Gmetad) captureFeed(summaryForm bool) (*feedView, error) {
	v := &feedView{epoch: g.epoch.Load(), summaryForm: summaryForm}
	hdr := append([]byte(nil), g.hdrPrefix...)
	hdr = strconv.AppendInt(hdr, g.cfg.Clock.Now().Unix(), 10)
	hdr = append(hdr, '"', '>', '\n')
	v.header = hdr

	if summaryForm {
		body, err := g.renderRoot(true)
		if err != nil {
			return nil, err
		}
		v.summary = body
		return v, nil
	}

	slots := g.snapshotOrder()
	var buf bytes.Buffer
	w := gxml.NewWriter(&buf)
	g.renderHealth(w, slots)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	v.health = buf.Bytes()
	for _, slot := range slots {
		if data, _ := slot.snapshot(); data != nil {
			v.slots = append(v.slots, feedSlot{name: slot.cfg.Name, kind: data.kind, data: data, frag: g.fragment(data, nil)})
		}
	}
	return v, nil
}

// diffFeed computes the delta from prev to cur. A nil prev materializes
// everything — the FULL sync form. Slot identity is snapshot pointer
// identity (the pipeline's snapshots are immutable, so an unchanged
// pointer is an unchanged section); within a changed gmond slot the
// diff descends to per-host byte comparison through the fragment spans.
func diffFeed(prev, cur *feedView) *stream.Delta {
	d := &stream.Delta{Header: cur.header, Health: cur.health}
	if cur.summaryForm {
		d.HasSummary = true
		d.Summary = cur.summary
		return d
	}
	var prevIdx map[string]*feedSlot
	if prev != nil {
		prevIdx = make(map[string]*feedSlot, len(prev.slots))
		for i := range prev.slots {
			prevIdx[prev.slots[i].name] = &prev.slots[i]
		}
	}
	d.Slots = make([]stream.SlotDelta, 0, len(cur.slots))
	for i := range cur.slots {
		s := &cur.slots[i]
		sd := stream.SlotDelta{Name: s.name, Grids: s.kind != SourceGmond}
		p := prevIdx[s.name]
		switch {
		case p != nil && p.kind == s.kind && p.data == s.data:
			sd.Unchanged = true
		case sd.Grids:
			sd.Bytes = s.frag.grids
		default:
			var pf *sourceFragment
			if p != nil && p.kind == s.kind {
				pf = p.frag
			}
			sd.Clusters = clusterDeltas(s.frag, pf)
		}
		d.Slots = append(d.Slots, sd)
	}
	return d
}

// clusterDeltas diffs one gmond fragment against its predecessor,
// emitting the full cluster/host skeleton with bytes only for hosts
// whose rendered element actually changed. A host both fragments
// rendered from the same immutable *gxml.Host at the same age is
// unchanged without a look at its bytes.
func clusterDeltas(cur, prev *sourceFragment) []stream.ClusterDelta {
	out := make([]stream.ClusterDelta, 0, len(cur.spans))
	for i := range cur.spans {
		cs := &cur.spans[i]
		cd := stream.ClusterDelta{
			Name:  cs.name,
			Open:  cur.clusters[cs.open.off:cs.open.end],
			Hosts: make([]stream.HostDelta, 0, len(cs.hosts)),
		}
		pc, ph := prev.cluster(i, cs.name), 0
		for j := range cs.hosts {
			hs := &cs.hosts[j]
			hb := cur.clusters[hs.b.off:hs.b.end]
			ps := pc.host(&ph, hs.name)
			if ps != nil && (ps.host == hs.host && prev.age == cur.age ||
				bytes.Equal(prev.clusters[ps.b.off:ps.b.end], hb)) {
				cd.Hosts = append(cd.Hosts, stream.HostDelta{Name: hs.name})
			} else {
				cd.Hosts = append(cd.Hosts, stream.HostDelta{Name: hs.name, Changed: true, Bytes: hb})
			}
		}
		out = append(out, cd)
	}
	return out
}

// serveStream runs one subscription connection: FULL sync, then a DELTA
// per epoch bump and a heartbeat per idle interval, until the client
// goes away or the daemon drains (which flushes a final BYE so the
// subscriber knows to resync elsewhere). Counted as a serving query.
func (g *Gmetad) serveStream(c net.Conn, summaryForm bool) {
	done, ok := g.streams.add(c)
	if !ok {
		if err := c.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
			return
		}
		fmt.Fprint(c, "<!-- ERROR shutting down -->\n")
		return
	}
	defer g.streams.remove(c)
	g.acct.queries.Add(1)
	// The query-line read deadline has served its purpose; from here
	// liveness is bounded by per-frame write deadlines.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return
	}

	writeFrame := func(f *stream.Frame) error {
		if err := c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout)); err != nil {
			return err
		}
		cw := &countingWriter{w: c}
		err := stream.WriteFrame(cw, f)
		g.acct.bytesOut.Add(cw.n)
		if err == nil {
			g.acct.streamFrames.Add(1)
		}
		return err
	}

	notify := g.epochChanged()
	cur, err := g.captureFeed(summaryForm)
	if err != nil {
		return
	}
	full := diffFeed(nil, cur)
	if err := writeFrame(&stream.Frame{Type: stream.FrameFull, Gen: cur.epoch, Payload: stream.AppendDelta(nil, full)}); err != nil {
		return
	}

	hb := clock.NewTicker(g.cfg.StreamHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-done:
			// The final resync marker of a draining daemon; a short
			// deadline — shutdown does not wait on a slow subscriber.
			if err := c.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
				return
			}
			if stream.WriteFrame(c, &stream.Frame{Type: stream.FrameBye, Gen: cur.epoch}) == nil {
				g.acct.streamFrames.Add(1)
			}
			return
		case <-notify:
			// Re-arm before capturing: a bump landing between the
			// capture and the next wait still wakes us, at worst for an
			// empty delta.
			notify = g.epochChanged()
			next, err := g.captureFeed(summaryForm)
			if err != nil {
				return
			}
			if next.epoch == cur.epoch {
				continue
			}
			d := diffFeed(cur, next)
			f := &stream.Frame{Type: stream.FrameDelta, Gen: next.epoch, Prev: cur.epoch, Payload: stream.AppendDelta(nil, d)}
			if err := writeFrame(f); err != nil {
				return
			}
			cur = next
		case <-hb.C:
			if err := writeFrame(&stream.Frame{Type: stream.FrameHeartbeat, Gen: cur.epoch, Prev: cur.epoch}); err != nil {
				return
			}
		}
	}
}

// serveWatch answers a ?filter=watch long-poll: the reply is withheld
// until the tree changes, the watch times out, or the daemon drains —
// then the addressed subtree is reported normally and the connection
// closes. Built on the same epoch broadcast as the stream feed, it
// gives dashboards change-driven refresh without a subscription link.
func (g *Gmetad) serveWatch(c net.Conn, q *query.Query) {
	inner := &query.Query{Segments: q.Segments}
	// Arm the broadcast first: any bump from this instant on — even one
	// landing before the registration below — closes the channel and
	// releases the wait. "Change" means change after the watch began.
	notify := g.epochChanged()
	done, ok := g.streams.add(c)
	if !ok {
		g.answer(c, inner)
		return
	}
	t := clock.NewTimer(g.cfg.WatchTimeout)
	select {
	case <-notify:
	case <-t.C:
	case <-done:
	}
	t.Stop()
	g.streams.remove(c)
	g.answer(c, inner)
}
