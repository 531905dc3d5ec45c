package serve

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"syscall"
	"testing"
)

// loopServer is a loopback listener served by Server, the connection loop
// batchsvc serves its public and shard listeners with, so tests that stand
// in for those listeners run on the production server. Tests that need a
// misbehaving server keep net/http/httptest.
type loopServer struct {
	URL   string
	srv   *Server
	conns connCount
}

// connCount counts the connections a loopServer accepted and closed.
type connCount struct {
	opened, closed atomic.Int64
}

// newLoopServer serves h on a fresh loopback port until the test ends.
func newLoopServer(t testing.TB, h http.Handler) *loopServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ls := &loopServer{URL: "http://" + ln.Addr().String(), srv: &Server{Handler: h}}
	go ls.srv.Serve(countingListener{ln, &ls.conns})
	t.Cleanup(ls.Close)
	return ls
}

// Close stops the server: idle connections close at once, and it returns
// once every request in flight has been answered, as httptest's Close does.
func (ls *loopServer) Close() {
	ls.srv.Shutdown(context.Background())
}

// countingListener counts the connections it hands out and their closes.
type countingListener struct {
	net.Listener
	n *connCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.opened.Add(1)
	return &countedConn{Conn: c, n: l.n}, nil
}

type countedConn struct {
	net.Conn
	n    *connCount
	once atomic.Bool
}

func (c *countedConn) Close() error {
	if c.once.CompareAndSwap(false, true) {
		c.n.closed.Add(1)
	}
	return c.Conn.Close()
}

// CloseWrite keeps the half-close the server uses before it lingers.
func (c *countedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// SyscallConn keeps the descriptor the server peeks at when a request
// polls its context.
func (c *countedConn) SyscallConn() (syscall.RawConn, error) {
	return c.Conn.(syscall.Conn).SyscallConn()
}
