package gmetad

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ganglia/internal/clock"
	"ganglia/internal/query"
)

// maxQueryLineBytes bounds the interactive port's query line. Path
// queries are short; a client streaming an endless "line" is cut off
// here instead of growing the read buffer without limit.
const maxQueryLineBytes = 4096

// listenerSet tracks the daemon's open listeners for Close and Drain.
type listenerSet struct {
	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
	// abandoned marks a drain that timed out with handlers still
	// running: a later closeAll must not Wait for them (they are owed
	// to their own deadlines), or shutdown would hang on the very
	// stragglers the drain already gave up on.
	abandoned bool
	wg        sync.WaitGroup
}

// add registers a listener and takes one WaitGroup slot for its serve
// loop; the slot is taken under the mutex so it is ordered before any
// closeAll Wait.
func (ls *listenerSet) add(l net.Listener) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		_ = l.Close()
		return false
	}
	ls.listeners = append(ls.listeners, l)
	ls.wg.Add(1)
	return true
}

func (ls *listenerSet) closeAll() {
	ls.mu.Lock()
	ls.closed = true
	abandoned := ls.abandoned
	l := ls.listeners
	ls.listeners = nil
	ls.mu.Unlock()
	for _, x := range l {
		_ = x.Close()
	}
	if !abandoned {
		ls.wg.Wait()
	}
}

// drainAll closes the listeners so no new connection is accepted, then
// waits up to timeout for the in-flight handlers to finish. It reports
// whether they all did; on false, the survivors are marked abandoned so
// a following closeAll returns without waiting for them.
func (ls *listenerSet) drainAll(timeout time.Duration) bool {
	ls.mu.Lock()
	ls.closed = true
	l := ls.listeners
	ls.listeners = nil
	ls.mu.Unlock()
	for _, x := range l {
		_ = x.Close()
	}
	done := make(chan struct{})
	go func() { //lint:allow goroutines only calls WaitGroup.Wait and close; nothing here can panic
		ls.wg.Wait()
		close(done)
	}()
	t := clock.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		ls.mu.Lock()
		ls.abandoned = true
		ls.mu.Unlock()
		return false
	}
}

// acquireConn takes one slot of the max-connections semaphore without
// blocking. A connection that finds the daemon at capacity is told so
// and closed immediately — under a flood the serve path degrades to
// fast rejections instead of unbounded goroutine growth.
func (g *Gmetad) acquireConn(c net.Conn) bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		g.acct.rejectedConns.Add(1)
		if err := c.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
			// The conn is already dead; don't bother with the notice.
			return false
		}
		fmt.Fprint(c, "<!-- ERROR busy: connection limit reached -->\n")
		return false
	}
}

func (g *Gmetad) releaseConn() { <-g.sem }

// ServeXML serves the legacy full-dump contract (gmetad's all-trusted
// TCP port, historically 8651): every connection receives the complete
// root report and is closed. Returns when the listener closes.
func (g *Gmetad) ServeXML(l net.Listener) {
	if !g.listeners.add(l) {
		return
	}
	defer g.listeners.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.listeners.wg.Add(1)
		go func(c net.Conn) {
			defer g.listeners.wg.Done()
			defer c.Close()
			defer g.recoverServePanic()
			if !g.acquireConn(c) {
				return
			}
			defer g.releaseConn()
			g.answer(c, &query.Query{})
		}(conn)
	}
}

// ServeQuery serves the interactive query contract (historically port
// 8652): the client sends one query line, receives the selected subtree
// as XML, and the connection closes. This is the port the paper's
// Table 1 viewer exercises.
func (g *Gmetad) ServeQuery(l net.Listener) {
	if !g.listeners.add(l) {
		return
	}
	defer g.listeners.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		g.listeners.wg.Add(1)
		go func(c net.Conn) {
			defer g.listeners.wg.Done()
			defer c.Close()
			defer g.recoverServePanic()
			if !g.acquireConn(c) {
				return
			}
			defer g.releaseConn()
			// A client that never sends its query line would pin this
			// goroutine (and a semaphore slot) forever; the read
			// deadline disconnects it. A conn that cannot take the
			// deadline is dead already.
			if err := c.SetReadDeadline(time.Now().Add(g.cfg.QueryReadTimeout)); err != nil {
				return
			}
			// The line cap keeps a client that streams bytes without a
			// newline from growing the buffer until the deadline fires.
			line, err := bufio.NewReaderSize(io.LimitReader(c, maxQueryLineBytes), 1024).ReadString('\n')
			if err != nil && line == "" {
				return
			}
			q, err := query.Parse(line)
			if err != nil {
				if err := c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout)); err != nil {
					return
				}
				fmt.Fprintf(c, "<!-- ERROR %s -->\n", xmlCommentSafe(err.Error()))
				return
			}
			switch q.Filter {
			case query.FilterStream, query.FilterStreamSummary:
				if !q.Root() {
					if err := c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout)); err != nil {
						return
					}
					fmt.Fprint(c, "<!-- ERROR stream subscriptions are root queries only -->\n")
					return
				}
				g.serveStream(c, q.Filter == query.FilterStreamSummary)
			case query.FilterWatch:
				g.serveWatch(c, q)
			default:
				g.answer(c, q)
			}
		}(conn)
	}
}

// answer builds and writes one query response, accounting the work as
// serve time. The write deadline disconnects clients that stop reading
// mid-response. Live queries go through the zero-copy pipeline
// (render.go): cached body splice on a hit, fragment splicing on a
// miss. History answers stream from the archive pool (history.go);
// the pool is mutable between polls and the epoch does not version it,
// so they are never cached.
func (g *Gmetad) answer(c net.Conn, q *query.Query) {
	g.acct.queries.Add(1)
	timed(&g.acct.serve, func() {
		if err := c.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout)); err != nil {
			// A dead conn cannot carry the response; skip the render.
			return
		}
		cw := &countingWriter{w: c}
		var err error
		if q.Filter == query.FilterHistory {
			err = g.writeHistoryAnswer(cw, q)
		} else {
			err = g.writeAnswer(cw, q)
		}
		if err != nil {
			fmt.Fprintf(c, "<!-- ERROR %s -->\n", xmlCommentSafe(err.Error()))
			return
		}
		g.acct.bytesOut.Add(cw.n)
	})
}

// recoverServePanic is the serve-path panic isolation (the poll path's
// safePoll pattern): a handler crashed by one connection's input fails
// that connection, not the daemon.
func (g *Gmetad) recoverServePanic() {
	if r := recover(); r != nil {
		g.acct.servePanics.Add(1)
		g.logf("serve panic recovered: %v", r)
	}
}

// xmlCommentSafe strips "--" so an error message cannot terminate the
// comment early.
func xmlCommentSafe(s string) string {
	out := make([]byte, 0, len(s))
	var prev byte
	for i := 0; i < len(s); i++ {
		if s[i] == '-' && prev == '-' {
			continue
		}
		out = append(out, s[i])
		prev = s[i]
	}
	return string(out)
}

type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.w.Write(b)
	cw.n += int64(n)
	return n, err
}
