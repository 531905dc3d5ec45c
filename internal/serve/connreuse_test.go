package serve

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/placement"
)

// Connection-reuse tests: every shard-protocol exchange hands its
// connection back to the shard transport's pool, so the router dials a
// shard a bounded number of times however many requests it sends.

// countConns serves h on the loop server and counts its connections.
func countConns(t *testing.T, h http.Handler) (*loopServer, *connCount) {
	t.Helper()
	ls := newLoopServer(t, h)
	return ls, &ls.conns
}

// TestRemoteLifecyclesReuseShardConnections drives K full lifecycles
// through a router whose shard 1 is a shard server reached with the
// default client. Run and delete replies carry bodies nobody reads; unless
// they are drained, each such exchange costs the connection, and the shard
// sees about two new connections per remote-homed session. Kept alive, the
// lifecycles share one connection: the router sends the shard nothing but
// the lifecycles' calls, one at a time, and the shard transport dials only
// for a caller that finds the pool empty, so connections never outnumber
// calls in flight. The count stays at one after every lifecycle, whatever
// K is.
func TestRemoteLifecyclesReuseShardConnections(t *testing.T) {
	const k, maxConns = 20, 1
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
	sv := NewSupervisor([]string{hostOf(srv.URL)}, nil, nil)
	for i := 0; i < 50; i++ {
		if err := sv.ping(context.Background(), hostOf(srv.URL)); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if n := conns.opened.Load(); n > 1 {
		t.Fatalf("50 pings opened %d connections, want 1", n)
	}
}
