// Package boundedreaddata exercises the bounded-read analyzer:
// wholesale consumption of a raw conn is a violation; capped readers
// and caller-bounded parameters are not.
package boundedreaddata

import (
	"bufio"
	"io"
	"net"

	"ganglia/internal/gxml"
)

// bad drains a raw connection with no cap.
func bad(c net.Conn) ([]byte, error) {
	return io.ReadAll(c) // want "no size cap"
}

// badBuffered hides the conn behind a bufio.Reader; ReadString grows
// until the delimiter arrives, so the allocation is still unbounded.
func badBuffered(c net.Conn) (string, error) {
	r := bufio.NewReader(c)
	return r.ReadString('\n') // want "no size cap"
}

// good caps the conn before consuming it.
func good(c net.Conn) ([]byte, error) {
	return io.ReadAll(io.LimitReader(c, 1<<20))
}

// goodWrapped caps first, then buffers.
func goodWrapped(c net.Conn) (string, error) {
	r := bufio.NewReader(io.LimitReader(c, 4096))
	return r.ReadString('\n')
}

// callerBounded consumes a plain reader parameter: the cap is the
// caller's contract, enforced at every call site.
func callerBounded(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

// allowed demonstrates a reasoned escape.
func allowed(c net.Conn) ([]byte, error) {
	return io.ReadAll(c) //lint:allow boundedread testdata demonstrates a sanctioned unbounded read
}

// badReport reads a whole report off a raw connection: the parser works
// on the document in memory, so this is an unbounded allocation.
func badReport(c net.Conn) ([]byte, error) {
	return gxml.ReadReport(c, nil) // want "no size cap"
}

// cappedReader stands in for gmetad's MaxReportBytes enforcer.
type cappedReader struct {
	r         io.Reader
	remaining int64
}

func (cr *cappedReader) Read(p []byte) (int, error) {
	if int64(len(p)) > cr.remaining {
		p = p[:cr.remaining]
	}
	n, err := cr.r.Read(p)
	cr.remaining -= int64(n)
	return n, err
}

// goodReport reads the report behind the cap.
func goodReport(c net.Conn, buf []byte) ([]byte, error) {
	return gxml.ReadReport(&cappedReader{r: c, remaining: 1 << 20}, buf)
}
