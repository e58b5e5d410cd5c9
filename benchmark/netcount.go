package main

import (
	"net"
	"sync/atomic"
	"time"

	"ganglia/internal/transport"
)

// edgeClass says which kind of tree edge a dialled address belongs to.
type edgeClass int

const (
	edgeLAN  edgeClass = iota // gmetad → gmond (cluster report download)
	edgeWAN                   // gmetad → gmetad (tier link: poll or stream)
	edgeView                  // viewer → gmetad
	edgeClasses
)

// edgeCounters totals one edge class. Bytes counts both directions as
// seen by the dialling side: query lines written plus answers read.
type edgeCounters struct {
	bytes  atomic.Int64
	conns  atomic.Int64
	dialNs atomic.Int64
}

// netCounters is shared by every countingNet of one tree.
type netCounters struct {
	edge [edgeClasses]edgeCounters
}

// edgeSnapshot is a point-in-time copy of one edge class.
type edgeSnapshot struct {
	Bytes, Conns int64
	Dial         time.Duration
}

func (c *netCounters) snapshot(class edgeClass) edgeSnapshot {
	e := &c.edge[class]
	return edgeSnapshot{Bytes: e.bytes.Load(), Conns: e.conns.Load(), Dial: time.Duration(e.dialNs.Load())}
}

func (s edgeSnapshot) sub(o edgeSnapshot) edgeSnapshot {
	return edgeSnapshot{Bytes: s.Bytes - o.Bytes, Conns: s.Conns - o.Conns, Dial: s.Dial - o.Dial}
}

// countingNet is the benchmark-owned transport.Network wrapper: it
// dials through the wrapped network and charges every byte the returned
// connection reads or writes, the connection itself and the time the
// dial took to the edge class of the dialled address.
type countingNet struct {
	inner    transport.Network
	counters *netCounters
	// classOf maps a dialled address to its edge class; addresses not
	// listed are charged to fallback.
	classOf  map[string]edgeClass
	fallback edgeClass
}

// Listen implements transport.Network; listeners are not counted (the
// dialling side sees the same bytes).
func (n *countingNet) Listen(addr string) (net.Listener, error) { return n.inner.Listen(addr) }

// Dial implements transport.Network.
func (n *countingNet) Dial(addr string) (net.Conn, error) {
	class, ok := n.classOf[addr]
	if !ok {
		class = n.fallback
	}
	e := &n.counters.edge[class]
	start := wallNow()
	conn, err := n.inner.Dial(addr)
	e.dialNs.Add(int64(wallNow().Sub(start)))
	if err != nil {
		return nil, err
	}
	e.conns.Add(1)
	return &countingConn{Conn: conn, bytes: &e.bytes}, nil
}

// countingConn adds the bytes moved in either direction to one counter.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
