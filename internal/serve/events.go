package serve

import (
	"net/http"

	"repro/internal/batch"
)

// This file implements the session event stream: subscribers receive the
// progress snapshots a running simulation publishes, with latest-wins
// semantics (a slow consumer sees fewer, fresher snapshots, never a
// backlog), and the HTTP layer exposes them as Server-Sent Events so
// clients replace status busy-polling with one long-lived GET.

// Subscribe registers a progress listener on the session. The returned
// channel (buffer 1, latest-wins) receives a batch.Progress per published
// snapshot; the returned func unsubscribes (it is idempotent and must be
// called to release the subscription). Waiting on Done alongside the
// channel tells the consumer when the stream is over. Subscribe is for
// sessions in this process: a remote-homed session's stream is its
// shard's own, forwarded by the events endpoint (a receipt's Done is
// closed, so its subscription ends at once).
func (s *Session) Subscribe() (<-chan batch.Progress, func()) {
	ch := make(chan batch.Progress, 1)
	s.mu.Lock()
	if s.subs == nil {
		// Lazily created: most sessions (and every benchmark session) never
		// attach an event stream.
		s.subs = make(map[chan batch.Progress]struct{})
	}
	s.subs[ch] = struct{}{}
	// Seed the channel so a subscriber joining mid-run (or after the run)
	// sees the latest state immediately instead of waiting a full interval.
	if s.hasSnap {
		ch <- s.snap.Progress
	}
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}
}

// offerLatest delivers p without ever blocking the publisher: if the
// subscriber has not consumed the previous snapshot it is replaced. The
// single publisher (the run goroutine) makes the drain-then-send safe from
// races with other senders; a concurrent receive only makes room.
func offerLatest(ch chan batch.Progress, p batch.Progress) {
	select {
	case ch <- p:
		return
	default:
	}
	select {
	case <-ch:
	default:
	}
	select {
	case ch <- p:
	default:
	}
}

// writeSSE emits one Server-Sent Event with a JSON payload, in one Write.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	bp := wireBufs.Get().(*[]byte)
	b := append((*bp)[:0], "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b, err := appendJSON(b, v)
	if err == nil {
		_, err = w.Write(append(b, "\n\n"...))
	}
	putWireBuf(bp, b)
	return err
}

// handleEvents is GET /api/sessions/{id}/events: an SSE stream. The client
// first receives a `state` event with the session's current status, then a
// `progress` event per published snapshot while the simulation runs, and
// finally a closing `state` event once the session reaches a terminal state
// (immediately, for sessions already terminal). Disconnecting the request
// tears the subscription down.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	rc := http.NewResponseController(w)
	ch, unsubscribe := s.Subscribe()
	defer unsubscribe()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if writeSSE(w, "state", s.Status()) != nil {
		return
	}
	select {
	case <-s.Done():
		// Already over: the whole stream goes out in one write when the
		// handler returns, with no flush per frame.
		closeEvents(w, s, ch)
		return
	default:
	}
	if err := rc.Flush(); err != nil {
		// The connection cannot stream (no Flush support); nothing more to
		// deliver incrementally.
		return
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case p := <-ch:
			if writeSSE(w, "progress", p) != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		case <-s.Done():
			closeEvents(w, s, ch)
			return
		}
	}
}

// closeEvents ends a finished session's stream: it writes any snapshot
// published just before the terminal transition, then the closing state.
func closeEvents(w http.ResponseWriter, s *Session, ch <-chan batch.Progress) {
	select {
	case p := <-ch:
		if writeSSE(w, "progress", p) != nil {
			return
		}
	default:
	}
	_ = writeSSE(w, "state", s.Status())
}

// handleCancel is POST /api/sessions/{id}/cancel: aborts a running session
// (409 otherwise) and reports the resulting state. The call returns once
// the run has stopped and its worker slot is free — within one progress
// interval.
func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	// Resolve the session before cancelling: a concurrent DELETE could
	// remove it from the manager right after Cancel succeeds, and a 404
	// then would misreport a cancel that actually took effect.
	s := a.session(w, r)
	if s == nil {
		return
	}
	if err := a.b.Cancel(s.ID()); err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}
