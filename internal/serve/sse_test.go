package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off the stream until the server closes it or the
// limit is reached.
func readSSE(t *testing.T, r *bufio.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for len(events) < limit {
		line, err := r.ReadString('\n')
		if err != nil {
			break // server closed the stream
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestSSEStreamsProgressToCompletion drives a session over a real HTTP
// connection and checks the stream shape: state, progress*, state(done).
func TestSSEStreamsProgressToCompletion(t *testing.T) {
	mgr := NewManager(1)
	srv := httptest.NewServer(NewAPI(mgr).Handler())
	defer srv.Close()

	s, err := mgr.Create("sse", slowConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 200, Jitter: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/sessions/" + s.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	if err := mgr.Run(s); err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 10_000)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least opening and closing state", len(events))
	}
	if events[0].name != "state" {
		t.Fatalf("first event = %q, want state", events[0].name)
	}
	var opening SessionStatus
	if err := json.Unmarshal([]byte(events[0].data), &opening); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.name != "state" {
		t.Fatalf("last event = %q, want state", last.name)
	}
	var closing SessionStatus
	if err := json.Unmarshal([]byte(last.data), &closing); err != nil {
		t.Fatal(err)
	}
	if closing.State != StateDone {
		t.Fatalf("closing state = %s (%s)", closing.State, closing.Error)
	}
	// Every intermediate event is a parseable progress snapshot carrying the
	// per-class summary.
	sawProgress := false
	for _, ev := range events[1 : len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q mid-stream", ev.name)
		}
		var p batch.Progress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("unparseable progress %q: %v", ev.data, err)
		}
		if p.JobsTotal != 200 {
			t.Fatalf("progress jobs_total = %d", p.JobsTotal)
		}
		if len(p.Classes) != 1 || p.Classes[0].App != "shapes" {
			t.Fatalf("progress classes = %+v", p.Classes)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Fatal("stream carried no progress events")
	}
}

// TestSSEOnTerminalSessionClosesImmediately subscribes after the run is
// over: the stream must deliver state, the last progress and the final
// state, and end without hanging. Nothing is left to stream, so the frames
// go out in one write: the response carries a Content-Length instead of
// being chunked flush by flush.
func TestSSEOnTerminalSessionClosesImmediately(t *testing.T) {
	mgr := NewManager(1)
	srv := httptest.NewServer(NewAPI(mgr).Handler())
	defer srv.Close()

	s, err := mgr.Create("", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/sessions/"+s.ID()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewReader(resp.Body), 100)
	if ctx.Err() != nil {
		t.Fatal("stream on a terminal session did not close promptly")
	}
	if len(events) == 0 {
		t.Fatal("no events on terminal session")
	}
	var final SessionStatus
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state = %s", final.State)
	}
	var names []string
	for _, e := range events {
		names = append(names, e.name)
	}
	if got := strings.Join(names, ","); got != "state,progress,state" {
		t.Fatalf("events = %s, want state,progress,state", got)
	}
	if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
		t.Fatalf("finished session's stream was flushed in chunks (Content-Length %d, Transfer-Encoding %q), want one write",
			resp.ContentLength, resp.TransferEncoding)
	}
}

// TestSSEClientDisconnectReleasesSubscription drops the client mid-stream
// and checks the session still runs to completion and the subscription is
// torn down.
func TestSSEClientDisconnectReleasesSubscription(t *testing.T) {
	mgr := NewManager(1)
	srv := httptest.NewServer(NewAPI(mgr).Handler())
	defer srv.Close()

	s := startSlowSession(t, mgr, slowSessionJobs)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/sessions/"+s.ID()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event, then vanish.
	readSSE(t, bufio.NewReader(resp.Body), 1)
	cancel()
	resp.Body.Close()

	s.Wait()
	if _, err := s.Report(); err != nil {
		t.Fatalf("run after client disconnect: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions still registered after disconnect", n)
		}
		time.Sleep(time.Millisecond)
	}
}
