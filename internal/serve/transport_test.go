package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Shard transport tests: the default router→shard client pools its
// keep-alive connections, checks an idle one before reuse, never resends
// a request it may have written, and pools a connection only after a clean,
// fully read reply.

// idleConns reports how many idle connections tr holds for host:port.
func idleConns(tr *shardTransport, addr string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.idle[addr])
}

// transportOf returns the shard transport behind a default-client backend.
func transportOf(t *testing.T, rb *RemoteBackend) *shardTransport {
	t.Helper()
	tr, ok := rb.client.Transport.(*shardTransport)
	if !ok {
		t.Fatalf("default client transport is %T, want *shardTransport", rb.client.Transport)
	}
	return tr
}

// countBags wraps h, counting the bag submissions that reach it.
func countBags(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/bags") {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// waitClosed polls until the server has seen want connections close.
func waitClosed(t *testing.T, c *connCount, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.closed.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("shard saw %d connections close, want %d", c.closed.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

var testBag = BagRequest{App: "shapes", Jobs: 6, Jitter: 0.01, Seed: 1}

// forwardBag sends testBag to session id through rb the way the API
// forwards a remote-homed session's request, and returns the reply.
func forwardBag(t *testing.T, rb *RemoteBackend, id string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(testBag)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rb.forward(rec, httptest.NewRequest(http.MethodPost, "/api/sessions/"+id+"/bags", bytes.NewReader(body)))
	return rec
}

// TestShardTransportStaleConnection covers a pooled connection the shard
// side has closed, whether the shard dropped it or its server restarted on
// the same address: the liveness check discards it, and the next bag
// submission — a mutation, never retried — succeeds on a fresh connection
// and reaches the handler exactly once.
func TestShardTransportStaleConnection(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := map[bool]string{false: "shard-closed", true: "server-restarted"}[restart]
		t.Run(name, func(t *testing.T) {
			m := NewShardManager(1)
			m.SetShardIndex(1)
			t.Cleanup(m.Close)
			var bags atomic.Int64
			h := countBags(ShardHandler(m), &bags)
			srv, conns := countConns(t, h)
			rb := NewRemoteBackend(srv.URL, fastRemoteOptions(nil))
			defer rb.Close()
			tr := transportOf(t, rb)

			s, err := rb.createSession(context.Background(), "s-001", "", testConfig(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := idleConns(tr, hostOf(srv)); n != 1 {
				t.Fatalf("after the create the pool holds %d connections, want 1", n)
			}
			if restart {
				addr := srv.Listener.Addr().String()
				srv.Close()
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				next := httptest.NewUnstartedServer(h)
				next.Listener.Close()
				next.Listener = ln
				next.Start()
				t.Cleanup(next.Close)
			} else {
				srv.CloseClientConnections()
			}

			if rec := forwardBag(t, rb, s.ID()); rec.Code != http.StatusAccepted {
				t.Fatalf("bag submission after a stale pooled connection: %d %s", rec.Code, rec.Body)
			}
			if n := bags.Load(); n != 1 {
				t.Fatalf("the shard handled the bag submission %d times, want 1", n)
			}
			if !restart {
				if n := conns.opened.Load(); n != 2 {
					t.Fatalf("shard accepted %d connections, want 2 (the stale one and a fresh one)", n)
				}
			}
		})
	}
}

// TestShardTransportNeverResends cuts the connection after the shard has
// read a bag submission: the call fails with a 503 and is not sent again,
// on a fresh connection or any other, even with retries configured.
func TestShardTransportNeverResends(t *testing.T) {
	m := NewShardManager(1)
	m.SetShardIndex(1)
	t.Cleanup(m.Close)
	var bags atomic.Int64
	inner := ShardHandler(m)
	srv, _ := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/bags") {
			bags.Add(1)
			conn, _, err := http.NewResponseController(w).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	opts := fastRemoteOptions(nil)
	opts.Retries = 3
	rb := NewRemoteBackend(srv.URL, opts)
	defer rb.Close()

	s, err := rb.createSession(context.Background(), "s-001", "", testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := forwardBag(t, rb, s.ID())
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ErrShardUnavailable.Error()) {
		t.Fatalf("submission on a cut connection: %d %s, want a 503 naming ErrShardUnavailable", rec.Code, rec.Body)
	}
	if n := bags.Load(); n != 1 {
		t.Fatalf("the shard saw the bag submission %d times, want 1", n)
	}
}

// TestShardTransportCancelledStreamNotPooled cancels a forwarded event
// stream: its shard connection closes and never returns to the pool, so
// the next call dials.
func TestShardTransportCancelledStreamNotPooled(t *testing.T) {
	m := NewShardManager(1)
	m.SetShardIndex(1)
	t.Cleanup(m.Close)
	srv, conns := countConns(t, ShardHandler(m))
	rb := NewRemoteBackend(srv.URL, fastRemoteOptions(nil))
	defer rb.Close()
	tr := transportOf(t, rb)

	s, err := rb.createSession(context.Background(), "s-001", "", testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The session never runs, so its stream stays open after the first
	// state frame until the edge client goes away.
	edge := httptest.NewServer(http.HandlerFunc(rb.forward))
	defer edge.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, edge.URL+"/api/sessions/"+s.ID()+"/events", nil)
	resp, err := edge.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the first frame: %v", err)
		}
		if line == "\n" {
			break
		}
	}
	if n := idleConns(tr, hostOf(srv)); n != 0 {
		t.Fatalf("the pool holds %d connections while the stream is open, want 0", n)
	}
	cancel()
	resp.Body.Close()

	waitClosed(t, conns, 1)
	if n := idleConns(tr, hostOf(srv)); n != 0 {
		t.Fatalf("the pool holds %d connections after the cancelled stream, want 0", n)
	}
	if _, err := rb.shardInfo(); err != nil {
		t.Fatal(err)
	}
	if n := conns.opened.Load(); n != 2 {
		t.Fatalf("shard accepted %d connections, want 2 (the stream's, then a fresh one)", n)
	}
}

// TestShardTransportReusesOnlyCleanReplies checks the release rule: an
// unread body, a stream closed before its end, a reply with Connection:
// close, a request that asked to close, and a context that fired before
// the body was closed each cost their connection; a reply read to EOF
// keeps it.
func TestShardTransportReusesOnlyCleanReplies(t *testing.T) {
	srv, conns := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
		case "/stream":
			// One chunk now, the rest only once the client has gone.
			io.WriteString(w, "partial")
			http.NewResponseController(w).Flush()
			<-r.Context().Done()
			return
		}
		io.WriteString(w, "hello")
	}))
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	for i, c := range []struct {
		name     string
		path     string
		closeReq bool
		read     func(io.Reader) error
		cancel   bool // cancel the request's context before closing the body
		wantIdle int
	}{
		{name: "undrained", path: "/", read: func(io.Reader) error { return nil }},
		{name: "unfinished-stream", path: "/stream", read: func(r io.Reader) error {
			_, err := io.ReadFull(r, make([]byte, len("partial")))
			return err
		}},
		{name: "reply-close", path: "/close", read: readAll},
		{name: "request-close", path: "/", closeReq: true, read: readAll},
		{name: "cancelled-after-eof", path: "/", read: readAll, cancel: true},
		{name: "clean", path: "/", read: readAll, wantIdle: 1},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+c.path, nil)
		req.Close = c.closeReq
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.read(resp.Body); err != nil {
			t.Fatalf("%s: reading the body: %v", c.name, err)
		}
		if c.cancel {
			cancel()
		}
		resp.Body.Close()
		cancel()
		if n := idleConns(tr, hostOf(srv)); n != c.wantIdle {
			t.Fatalf("%s: the pool holds %d connections, want %d", c.name, n, c.wantIdle)
		}
		if n := conns.opened.Load(); n != int64(i+1) {
			t.Fatalf("%s: server accepted %d connections, want %d (one per case)", c.name, n, i+1)
		}
	}
	// The clean reply's connection carries the next request.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	readAll(resp.Body)
	resp.Body.Close()
	if n := conns.opened.Load(); n != 6 {
		t.Fatalf("a request after a clean reply dialed: server accepted %d connections, want 6", n)
	}
}

func readAll(r io.Reader) error {
	_, err := io.ReadAll(r)
	return err
}

// TestShardTransportDropsBytesPastReply answers with a complete reply and
// stray bytes behind it in one write: the connection is not pooled, since
// the next reply read on it would start with those bytes.
func TestShardTransportDropsBytesPastReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
			return
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokJUNK")
		io.Copy(io.Discard, c) // hold the connection open until the client closes it
	}()
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := readAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := idleConns(tr, ln.Addr().String()); n != 0 {
		t.Fatalf("the pool holds %d connections with bytes past the reply, want 0", n)
	}
}

// TestShardTransportConcurrentCallers holds n requests at the handler until
// all have arrived: that only happens if each caller got its own
// connection. One more caller than the pool cap, so afterwards
// maxIdlePerShard connections are pooled and the extra one is closed.
func TestShardTransportConcurrentCallers(t *testing.T) {
	const n = maxIdlePerShard + 1
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	srv, conns := countConns(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release
		io.WriteString(w, "ok")
	}))
	tr := &shardTransport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := client.Get(srv.URL)
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatalf("only some of %d concurrent requests reached the handler: callers share a connection", n)
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.opened.Load(); got != n {
		t.Fatalf("server accepted %d connections, want %d", got, n)
	}
	if got := idleConns(tr, hostOf(srv)); got != maxIdlePerShard {
		t.Fatalf("the pool holds %d connections, want %d", got, maxIdlePerShard)
	}
	waitClosed(t, conns, n-maxIdlePerShard)
}

// TestRemoteBackendCloseIsPerBackend closes one backend: a second
// backend's pooled connection stays open and carries its next call.
func TestRemoteBackendCloseIsPerBackend(t *testing.T) {
	ma, mb := NewShardManager(1), NewShardManager(1)
	t.Cleanup(ma.Close)
	t.Cleanup(mb.Close)
	srvA, _ := countConns(t, ShardHandler(ma))
	srvB, connsB := countConns(t, ShardHandler(mb))
	a := NewRemoteBackend(srvA.URL, fastRemoteOptions(nil))
	b := NewRemoteBackend(srvB.URL, fastRemoteOptions(nil))
	defer b.Close()

	for _, rb := range []*RemoteBackend{a, b} {
		if _, err := rb.shardInfo(); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if n := idleConns(transportOf(t, a), hostOf(srvA)); n != 0 {
		t.Fatalf("closed backend still pools %d connections", n)
	}
	if _, err := b.shardInfo(); err != nil {
		t.Fatal(err)
	}
	if n := connsB.opened.Load(); n != 1 {
		t.Fatalf("closing backend A cost backend B its connection: B's shard accepted %d, want 1", n)
	}
}
