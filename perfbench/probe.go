package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connStats counts the traffic and lifetimes of the connections one
// layer accepts or dials, through the layer's own hooks (WithListener,
// Dialer.WrapConn).
type connStats struct {
	bytesIn, bytesOut, writes atomic.Int64
	mu                        sync.Mutex
	lifetimes                 series // ms, closed connections only
}

// wrap is a Dialer.WrapConn hook.
func (s *connStats) wrap(c net.Conn) net.Conn {
	return &countingConn{Conn: c, st: s, opened: time.Now()}
}

// listen opens a loopback listener whose connections are counted.
func (s *connStats) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, st: s}, nil
}

// closed returns the lifetimes of the connections closed so far.
func (s *connStats) closed() series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(series(nil), s.lifetimes...)
}

type countingListener struct {
	net.Listener
	st *connStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.st.wrap(c), nil
}

type countingConn struct {
	net.Conn
	st     *connStats
	opened time.Time
	once   sync.Once
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.st.bytesOut.Add(int64(n))
	c.st.writes.Add(1)
	return n, err
}

func (c *countingConn) Close() error {
	c.once.Do(func() {
		life := ms(time.Since(c.opened))
		c.st.mu.Lock()
		c.st.lifetimes = append(c.st.lifetimes, life)
		c.st.mu.Unlock()
	})
	return c.Conn.Close()
}

// probes are the traced run's hooks into each layer of a topology.
type probes struct {
	client, collector, gateway, router, gwTrunk, shardTrunk connStats

	mu    sync.Mutex
	dials series // wsproto NetDial durations, us
}

// dial is the beacon clients' NetDial in the traced run: dialFrom,
// timed.
func (p *probes) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	start := time.Now()
	c, err := dialFrom(ctx, network, addr)
	d := us(time.Since(start))
	p.mu.Lock()
	p.dials = append(p.dials, d)
	p.mu.Unlock()
	return c, err
}
