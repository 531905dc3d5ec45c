package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// This file holds Server, the connection loop batchsvc serves with, to
// net/http.Server's wire behaviour: the same request bytes, served by the
// same handlers, must get the same reply bytes (the Date value aside) and
// leave the connection open or closed alike.

// startStdServer serves h with net/http.Server on a loopback port.
func startStdServer(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// wireClient speaks raw bytes on one connection and keeps every byte the
// server sends.
type wireClient struct {
	t   testing.TB
	nc  net.Conn
	br  *bufio.Reader
	got bytes.Buffer
	m   *Manager
}

func dialWire(t testing.TB, addr string) *wireClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &wireClient{t: t, nc: nc}
	c.br = bufio.NewReader(io.TeeReader(nc, &c.got))
	return c
}

func (c *wireClient) send(raw string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, raw); err != nil {
		c.t.Fatal(err)
	}
}

// expect reads one reply to a request made with method and checks its
// status.
func (c *wireClient) expect(method string, status int) {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.t.Fatalf("reading the reply to %s: %v (read so far %q)", method, err, c.got.String())
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != status {
		c.t.Fatalf("%s got %d, want %d (read so far %q)", method, resp.StatusCode, status, c.got.String())
	}
}

// finish reads what else the server sends within a short wait and reports
// whether the connection is still open.
func (c *wireClient) finish() bool {
	c.nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err := io.Copy(io.Discard, c.br)
	return errors.Is(err, os.ErrDeadlineExceeded)
}

var dateLine = regexp.MustCompile(`\r\nDate: ([^\r\n]*)\r\n`)

// maskDate replaces each reply's Date value, checking it parses.
func maskDate(t testing.TB, wire string) string {
	t.Helper()
	for _, m := range dateLine.FindAllStringSubmatch(wire, -1) {
		if _, err := http.ParseTime(m[1]); err != nil {
			t.Fatalf("Date %q: %v", m[1], err)
		}
	}
	return dateLine.ReplaceAllString(wire, "\r\nDate: *\r\n")
}

// req renders one request with a Host and a fixed trace id, so the edge
// mints none.
func req(method, path, body string, extra ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: svc\r\nX-Trace-Id: 00000000000000aa\r\n", method, path)
	for _, h := range extra {
		b.WriteString(h + "\r\n")
	}
	if body != "" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	return b.String() + "\r\n" + body
}

func wireCreateBody(t testing.TB) string {
	b, err := json.Marshal(createRequest{Name: "wire", Config: testConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeConnMatchesNetHTTP sends each script's bytes to net/http.Server
// and to Server, each serving a fresh API (or shard protocol) over its own
// Manager, and requires byte-identical replies and the same connection
// state at the end.
func TestServeConnMatchesNetHTTP(t *testing.T) {
	create := wireCreateBody(t)
	cases := []struct {
		name  string
		shard bool
		run   func(c *wireClient)
	}{
		{"lifecycle", false, func(c *wireClient) {
			c.send(req("POST", "/api/sessions", create))
			c.expect("POST", 201)
			c.send(req("POST", "/api/sessions/s-001/bags", `{"app":"shapes","jobs":5,"seed":1}`))
			c.expect("POST", 202)
			c.send(req("POST", "/api/sessions/s-001/run", ""))
			c.expect("POST", 202)
			s, err := c.m.Get("s-001")
			if err != nil {
				c.t.Fatal(err)
			}
			s.Wait()
			for _, path := range []string{"", "/report", "/events", "/jobs", "/vms"} {
				c.send(req("GET", "/api/sessions/s-001"+path, ""))
				c.expect("GET", 200)
			}
			c.send(req("GET", "/api/nope", ""))
			c.expect("GET", 404)
			c.send(req("PUT", "/api/sessions", ""))
			c.expect("PUT", 405)
			c.send(req("DELETE", "/api/sessions/s-001", ""))
			c.expect("DELETE", 200)
		}},
		{"request URI *", false, func(c *wireClient) {
			c.send("OPTIONS * HTTP/1.1\r\nHost: svc\r\n\r\n")
			c.expect("OPTIONS", 200)
			c.send("GET * HTTP/1.1\r\nHost: svc\r\nX-Trace-Id: 00000000000000aa\r\n\r\n")
			c.expect("GET", 400)
		}},
		{"HEAD", false, func(c *wireClient) {
			c.send(req("HEAD", "/api/sessions", ""))
			c.expect("HEAD", 200)
			c.send(req("HEAD", "/api/nope", ""))
			c.expect("HEAD", 404)
		}},
		{"expect 100-continue", false, func(c *wireClient) {
			c.send(req("POST", "/api/sessions", create, "Expect: 100-continue"))
			c.expect("POST", 100)
			c.expect("POST", 201)
			c.send(req("POST", "/api/sessions", "", "Expect: 100-continue"))
			c.expect("POST", 400)
			c.send(req("POST", "/api/sessions", "", "Expect: something-else"))
			c.expect("POST", 417)
		}},
		{"pipelined pair", false, func(c *wireClient) {
			c.send(req("POST", "/api/sessions", create) + req("GET", "/api/sessions", ""))
			c.expect("POST", 201)
			c.expect("GET", 200)
		}},
		{"HTTP/1.0", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/1.0\r\nX-Trace-Id: 00000000000000aa\r\n\r\n")
			c.expect("GET", 200)
		}},
		{"HTTP/1.0 keep-alive", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/1.0\r\nConnection: keep-alive\r\nX-Trace-Id: 00000000000000aa\r\n\r\n")
			c.expect("GET", 200)
			c.send("GET /api/nope HTTP/1.0\r\nConnection: keep-alive\r\nX-Trace-Id: 00000000000000aa\r\n\r\n")
			c.expect("GET", 404)
		}},
		{"chunked request body", false, func(c *wireClient) {
			chunked := fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(create), create)
			c.send(req("POST", "/api/sessions", "", "Transfer-Encoding: chunked") + chunked)
			c.expect("POST", 201)
			c.send(req("GET", "/api/sessions/s-001", ""))
			c.expect("GET", 200)
		}},
		{"unread request body", false, func(c *wireClient) {
			c.send(req("GET", "/api/nope", strings.Repeat("x", 3000)))
			c.expect("GET", 404)
			c.send(req("GET", "/api/sessions", ""))
			c.expect("GET", 200)
		}},
		{"Connection: close", false, func(c *wireClient) {
			c.send(req("GET", "/api/sessions", "", "Connection: close"))
			c.expect("GET", 200)
		}},
		{"oversize header", false, func(c *wireClient) {
			big := req("GET", "/api/sessions", "", "X-Big: "+strings.Repeat("b", 1<<20+8192))
			go io.WriteString(c.nc, big)
			c.expect("GET", 431)
		}},
		{"bad request line", false, func(c *wireClient) {
			c.send("GARBAGE\r\n\r\n")
			c.expect("GET", 400)
		}},
		{"missing Host", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/1.1\r\n\r\n")
			c.expect("GET", 400)
		}},
		{"malformed Host", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/1.1\r\nHost: a b\r\n\r\n")
			c.expect("GET", 400)
		}},
		{"invalid header field", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/1.1\r\nHost: svc\r\nBad Name: v\r\n\r\n")
			c.expect("GET", 400)
		}},
		{"unknown transfer coding", false, func(c *wireClient) {
			c.send(req("POST", "/api/sessions", "", "Transfer-Encoding: gzip"))
			c.expect("POST", 501)
		}},
		{"HTTP/2 request line", false, func(c *wireClient) {
			c.send("GET /api/sessions HTTP/2.0\r\nHost: svc\r\n\r\n")
			c.expect("GET", 505)
		}},
		{"shard protocol", true, func(c *wireClient) {
			c.send(req("GET", "/shard/ping", ""))
			c.expect("GET", 200)
			c.send(req("GET", "/shard/info", ""))
			c.expect("GET", 200)
			c.send(req("POST", "/shard/sessions", `{"id":"s-007","config":`+string(mustJSON(t, testConfig(2)))+`}`))
			c.expect("POST", 201)
			c.send(req("POST", "/shard/sessions", `{"id":"s-007","config":`+string(mustJSON(t, testConfig(2)))+`}`))
			c.expect("POST", 409)
			c.send(req("GET", "/shard/nope", ""))
			c.expect("GET", 404)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var wire [2]string
			var open [2]bool
			for i, loop := range []bool{false, true} {
				var m *Manager
				var h http.Handler
				if tc.shard {
					m = NewShardManager(1)
					h = ShardHandler(m)
				} else {
					m = NewManager(1)
					h = NewAPI(m).Handler()
				}
				t.Cleanup(m.Close)
				addr := ""
				if loop {
					addr = strings.TrimPrefix(newLoopServer(t, h).URL, "http://")
				} else {
					addr = startStdServer(t, h)
				}
				c := dialWire(t, addr)
				c.m = m
				tc.run(c)
				open[i] = c.finish()
				wire[i] = maskDate(t, c.got.String())
			}
			if wire[0] != wire[1] {
				t.Errorf("replies differ\nnet/http: %q\nloop:     %q", wire[0], wire[1])
			}
			if open[0] != open[1] {
				t.Errorf("connection open after the exchange: net/http %v, loop %v", open[0], open[1])
			}
		})
	}
}

// wireHandler is a deterministic handler with the reply shapes a server
// must frame: sniffed, declared and chunked lengths, flushes, bodies
// read, left unread or refused, and an aborted handler.
func wireHandler() http.Handler {
	mux := newJSONMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "text/plain")
		w.Write(b)
	})
	mux.HandleFunc("POST /half", func(w http.ResponseWriter, r *http.Request) {
		var b [4]byte
		io.ReadFull(r.Body, b[:])
		w.Write(b[:])
	})
	mux.HandleFunc("POST /closebody", func(w http.ResponseWriter, r *http.Request) {
		r.Body.Close()
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("POST /nocontent", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /big", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "<html>%s</html>\n", strings.Repeat("x", 900))
		}
	})
	mux.HandleFunc("GET /flush", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("event: a\n\n"))
		w.(http.Flusher).Flush()
		w.Write([]byte("event: b\n\n"))
	})
	mux.HandleFunc("GET /length", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5")
		w.Write([]byte("abc"))
	})
	mux.HandleFunc("GET /close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("bye"))
	})
	mux.HandleFunc("GET /cached", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusNotModified)
	})
	mux.HandleFunc("GET /abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	return mux
}

// FuzzServeConn sends arbitrary bytes on one connection, half-closed after
// them, to net/http.Server and to Server serving wireHandler, and requires
// the same reply bytes (Date aside) from both, with neither hanging.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"GET /big HTTP/1.1\r\nHost: a\r\n\r\nHEAD /big HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello",
		"POST /echo HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n\r\nGET /flush HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /half HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 9\r\n\r\n123456789",
		"POST /closebody HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\nabcGET /length HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /nocontent HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhiGET /length HTTP/1.0\r\n\r\n",
		"GET /cached HTTP/1.1\r\nHost: a\r\n\r\nGET /close HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /abort HTTP/1.1\r\nHost: a\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: a\r\nContent-Length: 1\r\n\r\nx",
		"GET /nope HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\nGET /big HTTP/1.1\r\nHost: a\r\n\r\n",
		"PUT /echo HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: identity\r\n\r\n",
		"GET / HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	std := startStdServer(f, wireHandler())
	loop := strings.TrimPrefix(newLoopServer(f, wireHandler()).URL, "http://")
	f.Fuzz(func(t *testing.T, in []byte) {
		a, b := wireOnce(t, std, in), wireOnce(t, loop, in)
		if a != b {
			t.Fatalf("replies differ for %q\nnet/http: %q\nloop:     %q", in, a, b)
		}
	})
}

// wireOnce sends in, half-closes, and returns what the server sends before
// it closes, Date masked.
func wireOnce(t *testing.T, addr string, in []byte) string {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go func() {
		nc.Write(in)
		nc.(*net.TCPConn).CloseWrite()
	}()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got bytes.Buffer
	if _, err := io.Copy(&got, nc); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s did not close within 10s for %q (sent %q)", addr, in, got.String())
	}
	return maskDate(t, got.String())
}

// TestServeConnAllocs pins the allocations one keep-alive GET costs
// through the loop, the handler's own included.
func TestServeConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	body := []byte(`{"ok":true}` + "\n")
	ls := newLoopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	c := dialWire(t, strings.TrimPrefix(ls.URL, "http://"))
	get := []byte("GET /x HTTP/1.1\r\nHost: svc\r\n\r\n")
	c.send(string(get))
	c.expect("GET", 200)
	reply := make([]byte, c.got.Len())
	allocs := testing.AllocsPerRun(200, func() {
		c.nc.Write(get)
		io.ReadFull(c.nc, reply)
	})
	if !bytes.HasSuffix(reply, body) {
		t.Fatalf("reply %q", reply)
	}
	// The request parser's request, URL, header map and strings (7), the
	// request's context with its cancel func (2), the request copy that
	// carries it (1), and the handler's Header().Set (1). The reply itself
	// allocates nothing.
	const budget = 11
	if allocs > budget {
		t.Fatalf("%.1f allocations per keep-alive GET, budget %d", allocs, budget)
	}
	t.Logf("%.1f allocations per keep-alive GET", allocs)
}

// TestServeConnClientLeavesEventStream drops a client mid-stream while its
// session still runs: the watcher sees it leave, the handler's context is
// cancelled and the subscription released before the run is over.
func TestServeConnClientLeavesEventStream(t *testing.T) {
	mgr := NewManager(1)
	t.Cleanup(mgr.Close)
	ls := newLoopServer(t, NewAPI(mgr).Handler())
	s := startSlowSession(t, mgr, slowSessionJobs)
	t.Cleanup(func() { mgr.Cancel(s.ID()) })

	c := dialWire(t, strings.TrimPrefix(ls.URL, "http://"))
	c.send(req("GET", "/api/sessions/"+s.ID()+"/events", ""))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(readSSE(t, bufio.NewReader(resp.Body), 1)) != 1 {
		t.Fatal("no first event")
	}
	c.nc.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions still registered 10s after the client left", n)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-s.Done():
		t.Fatal("the run ended before the subscription was released; nothing shows the client was seen leaving")
	default:
	}
}

// TestServeConnSweepRouterLeaves sends a sweep group to a shard and leaves
// 1 ms after its headers arrive: the group's request context is cancelled.
func TestServeConnSweepRouterLeaves(t *testing.T) {
	m := NewShardManager(1)
	t.Cleanup(m.Close)
	ctxs := make(chan context.Context, 1)
	h := ShardHandler(m)
	ls := newLoopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shardSweepPath {
			ctxs <- r.Context()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		for _, st := range m.List() {
			m.Cancel(st.ID())
		}
	})
	group := shardSweepRequest{
		Cells: []shardCreateRequest{{ID: "s-001", Config: slowConfig(1)}},
		Bag:   BagRequest{App: "shapes", Jobs: slowSessionJobs, Jitter: 0.02, Seed: 3},
	}
	c := dialWire(t, strings.TrimPrefix(ls.URL, "http://"))
	c.send(req("POST", shardSweepPath, string(mustJSON(t, group))))
	if _, err := http.ReadResponse(c.br, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	c.nc.Close()
	select {
	case <-(<-ctxs).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the sweep group's context outlived its router's connection by 10s")
	}
}

// TestServeConnPipelinedByteServed pipelines a second request while the
// first runs past watchAfter: the watcher reads the new bytes, and they
// are served as the next request, with the first request's context intact.
func TestServeConnPipelinedByteServed(t *testing.T) {
	release := make(chan struct{})
	slowErr := make(chan error, 1)
	ls := newLoopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-release
			slowErr <- r.Context().Err()
		}
		io.WriteString(w, r.URL.Path)
	}))
	c := dialWire(t, strings.TrimPrefix(ls.URL, "http://"))
	c.send("GET /slow HTTP/1.1\r\nHost: svc\r\n\r\n")
	watcher := waitWatcher(t, ls.srv)
	c.send("GET /next HTTP/1.1\r\nHost: svc\r\n\r\n")
	select {
	case <-watcher: // it peeked the pipelined bytes and returned
	case <-time.After(10 * time.Second):
		t.Fatal("the watcher did not return on the pipelined request's bytes")
	}
	close(release)
	for _, want := range []string{"/slow", "/next"} {
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		if string(got) != want {
			t.Fatalf("reply %q, want %q", got, want)
		}
	}
	if err := <-slowErr; err != nil {
		t.Fatalf("the first request's context ended while it ran: %v", err)
	}
}

// waitWatcher waits until a connection of s runs a disconnect watcher, and
// returns the channel that closes when the watcher returns.
func waitWatcher(t *testing.T, s *Server) chan struct{} {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		for c := range s.conns {
			c.mu.Lock()
			done := c.watchDone
			c.mu.Unlock()
			if done != nil {
				s.mu.Unlock()
				return done
			}
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no watcher started within 10s of a request running past watchAfter")
	return nil
}

// TestServeConnShutdownIdleAndBusy shuts down with one idle keep-alive
// connection and one busy one: the idle one closes at once, Shutdown waits
// for the busy one, whose reply says the connection closes.
func TestServeConnShutdownIdleAndBusy(t *testing.T) {
	release := make(chan struct{})
	ls := newLoopServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/busy" {
			<-release
		}
		io.WriteString(w, "ok")
	}))
	addr := strings.TrimPrefix(ls.URL, "http://")
	idle := dialWire(t, addr)
	idle.send("GET /quick HTTP/1.1\r\nHost: svc\r\n\r\n")
	idle.expect("GET", 200)
	busy := dialWire(t, addr)
	busy.send("GET /busy HTTP/1.1\r\nHost: svc\r\n\r\n")
	for busyCount(ls.srv) == 0 {
		time.Sleep(time.Millisecond) // until the busy request is in its handler
	}

	done := make(chan error, 1)
	go func() { done <- ls.srv.Shutdown(context.Background()) }()
	idle.nc.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := idle.nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read %d bytes, %v; want EOF at once", n, err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	busy.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(busy.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Close {
		t.Fatalf("busy reply during Shutdown kept the connection open: %v", resp.Header)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// busyCount is the number of connections s holds in a request.
func busyCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		if c.state.Load() == stateActive {
			n++
		}
	}
	return n
}
