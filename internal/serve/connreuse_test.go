package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/placement"
)

// Connection-reuse tests: every shard-protocol exchange hands its
// connection back to the shard transport's pool, so the router dials a
// shard a bounded number of times however many requests it sends.

// connCount counts the TCP connections a test server accepts and closes.
type connCount struct {
	opened, closed atomic.Int64
}

// countConns starts a test server for h that counts its connections.
func countConns(t *testing.T, h http.Handler) (*httptest.Server, *connCount) {
	t.Helper()
	var c connCount
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			c.opened.Add(1)
		case http.StateClosed:
			c.closed.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &c
}

// TestRemoteLifecyclesReuseShardConnections drives K full lifecycles
// through a router whose shard 1 is a shard server reached with the
// default client. Run and delete replies carry bodies nobody reads; unless
// they are drained, each such exchange costs the connection, and the shard
// sees about two new connections per remote-homed session. Kept alive, the
// lifecycles share one connection. The id tick's /shard/info may need a
// second when it runs beside a request. The shard transport dials only for
// a caller that finds the pool empty, and that caller uses the connection
// it dialed, so connections never outnumber calls in flight: one lifecycle
// call plus one id-tick call. The count stays at that bound after every
// lifecycle, whatever K is.
func TestRemoteLifecyclesReuseShardConnections(t *testing.T) {
	const k, maxConns = 20, 2
	m := NewShardManager(2)
	m.SetShardIndex(1)
	t.Cleanup(m.Close)
	srv, conns := countConns(t, ShardHandler(m))
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewAPI(r).Handler()

	remote := 0
	for i := 1; i <= k; i++ {
		id, _ := lifecycle(t, h, i, waitOn(t, r.Shard(0), m))
		if placement.Shard(id, 2) == 1 {
			remote++
		}
		if n := conns.opened.Load(); n > maxConns {
			t.Fatalf("after %d lifecycles (%d remote-homed) the shard accepted %d connections, want <= %d",
				i, remote, n, maxConns)
		}
	}
	if remote < k/4 {
		t.Fatalf("only %d of %d sessions homed on the remote shard", remote, k)
	}
}

// TestSupervisorPingReusesConnection pings a shard 50 times: each reply is
// read to EOF, so every ping after the first reuses the same connection.
func TestSupervisorPingReusesConnection(t *testing.T) {
	m := NewShardManager(1)
	t.Cleanup(m.Close)
	srv, conns := countConns(t, ShardHandler(m))
	sv := NewSupervisor([]string{hostOf(srv)}, nil, nil)
	for i := 0; i < 50; i++ {
		if err := sv.ping(context.Background(), hostOf(srv)); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if n := conns.opened.Load(); n > 1 {
		t.Fatalf("50 pings opened %d connections, want 1", n)
	}
}
