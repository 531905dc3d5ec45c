package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/batch"
	"repro/internal/ids"
)

// fuzzShard starts a fresh shard for one fuzz input — a Manager with a
// store behind ShardHandler, holding s-001, so its id high-water mark is 1
// — and returns it with a poster for its handler. A fresh shard per input
// keeps a 201 reachable after the fuzzer has sent a large id, which raises
// a shard's mark for good. The shards of one fuzz target share models, so
// a fit recipe is fitted once, as it is on a long-lived shard.
func fuzzShard(t testing.TB, models *modelCache, runHook func(context.Context, *batch.Service) (batch.Report, error)) (*Manager, func(path string, body []byte) *httptest.ResponseRecorder) {
	t.Helper()
	m := NewShardManager(1)
	t.Cleanup(m.Close)
	m.models = models
	m.runHook = runHook
	if err := m.Restore(openStore(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	h := ShardHandler(m)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	held, _ := json.Marshal(shardCreateRequest{ID: "s-001", Config: testConfig(1)})
	if rec := post("/shard/sessions", held); rec.Code != http.StatusCreated {
		t.Fatalf("creating the held session = %d, want 201", rec.Code)
	}
	return m, post
}

// markOf reads a shard's id high-water mark.
func markOf(m *Manager) int {
	info, _ := m.shardInfo()
	return info.IDSeq
}

// checkRefusal fails t unless a 409 answered with the shard's pre-request
// id high-water mark and appended nothing.
func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder, mark, appended int) {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.IDSeq != mark {
		t.Fatalf("409 %s: want id_seq %d", rec.Body, mark)
	}
	if appended != 0 {
		t.Fatalf("refused request (409) appended %d records", appended)
	}
}

// FuzzShardCreate feeds arbitrary bodies to POST /shard/sessions, the
// create a router sends a shard, through a fresh shard's own handler:
// decodeStrict, the id claim, then createSession with the pinned model
// parameters the body carries. Nothing may panic. A 201 comes only for an
// id above the shard's id high-water mark, which it raises to that id, and
// for a config that passes Validate whose parameters — pinned ones for a
// model_ref, inline ones otherwise — build a model. A well-formed create
// under an id at or below the mark answers 409 with the mark, and anything
// not acknowledged answers a 4xx and appends nothing to the shard's store.
// The seeds are a valid inline-model create, a pinned model_ref with its
// parameters, a model_ref without them, a zero tau1, parameters with no
// mass before the deadline, an empty id, a checkpointed session whose
// deadline is shorter than the default checkpoint step, unknown fields, the
// id the shard holds, and that id written another way.
//
//	go test -run '^$' -fuzz '^FuzzShardCreate$' -fuzztime 20s ./internal/serve
func FuzzShardCreate(f *testing.F) {
	body := func(req shardCreateRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	p := testModelParams()
	zeroTau1 := p
	zeroTau1.Tau1 = 0
	noMass := ModelParams{A: 0, Tau1: 1, Tau2: 1, B: -1e6, L: 24}
	// A deadline shorter than the default checkpoint step.
	short := p
	short.L = 0.01
	checkpointed := refConfig(8, "east@v1")
	checkpointed.CheckpointDelta = 0.1
	for _, req := range []shardCreateRequest{
		{ID: "s-002", Name: "inline", Config: testConfig(2)},
		{ID: "s-003", Config: refConfig(3, "east@v1"), Params: &p},
		{ID: "s-004", Config: refConfig(4, "east@v1")},
		{ID: "s-005", Config: refConfig(5, "east@v1"), Params: &zeroTau1},
		{ID: "s-006", Config: refConfig(6, "east@v1"), Params: &noMass},
		{ID: "", Config: testConfig(7)},
		{ID: "s-008", Config: checkpointed, Params: &short},
		{ID: "s-001", Config: testConfig(1)},
		{ID: "s-1", Config: testConfig(1)},
	} {
		f.Add(body(req))
	}
	f.Add([]byte(`{"id":"s-009","config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"model_ref":"east@v1"},"params":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24},"epoch":7}`))

	models := newModelCache()
	f.Fuzz(func(t *testing.T, in []byte) {
		m, post := fuzzShard(t, models, nil)
		mark, before := markOf(m), m.StoreStats().Appended
		rec := post("/shard/sessions", in)
		appended := m.StoreStats().Appended - before
		var req shardCreateRequest
		wellFormed := decodeStrict(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(in)), &req) == nil
		n, minted := ids.Parse("s-", req.ID)
		if rec.Code == http.StatusConflict {
			checkRefusal(t, rec, mark, appended)
		}
		if wellFormed && minted && n <= mark && rec.Code != http.StatusConflict {
			t.Fatalf("create of %s at or below the mark %d answered %d, want 409", req.ID, mark, rec.Code)
		}
		if rec.Code != http.StatusCreated {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("create answered %d, want 201 or a 4xx", rec.Code)
			}
			if appended != 0 {
				t.Fatalf("refused create (%d) appended %d records", rec.Code, appended)
			}
			return
		}
		if !wellFormed || !minted || n <= mark {
			t.Fatalf("201 for id %q (well-formed %v) with the mark at %d", req.ID, wellFormed, mark)
		}
		if got := markOf(m); got != n {
			t.Fatalf("201 for %s left the mark at %d", req.ID, got)
		}
		cfg := req.Config.withDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("201 for a config Validate refuses: %v", err)
		}
		if (cfg.ModelRef != "") != (req.Params != nil) {
			t.Fatalf("201 with model_ref %q and params %v", cfg.ModelRef, req.Params)
		}
		if req.Params != nil {
			if _, err := req.Params.Model(); err != nil {
				t.Fatalf("201 for pinned parameters that build no model: %v", err)
			}
		}
		if appended != 1 {
			t.Fatalf("acknowledged create appended %d records, want 1", appended)
		}
	})
}

// FuzzShardSweep feeds arbitrary bodies to POST /shard/sweep, the one
// request a router sends a remote shard for a sweep's group of cells,
// through a fresh shard's own handler, with runs that finish at once.
// Nothing may panic. A 2xx answers one cell per requested cell, in request
// order (a cell that ran carries the id it was sent under), and comes only
// for ids that rise strictly from above the shard's id high-water mark,
// which it raises to the last of them. A group naming an id at or below
// the mark never runs: it answers 409 with the mark, or 400. Anything but
// a 2xx is a 4xx that appends nothing to the shard's store. The seeds are
// a valid two-cell group, a pinned model_ref with its parameters, one
// without them, an empty id, an id twice in one group, falling ids, the id
// the shard holds, a bag with no jobs, and unknown fields.
//
//	go test -run '^$' -fuzz '^FuzzShardSweep$' -fuzztime 20s ./internal/serve
func FuzzShardSweep(f *testing.F) {
	instant := func(context.Context, *batch.Service) (batch.Report, error) {
		return batch.Report{JobsCompleted: 1}, nil
	}
	bag := BagRequest{App: "shapes", Jobs: 3, Seed: 1}
	p := testModelParams()
	for _, req := range []shardSweepRequest{
		{Cells: []shardCreateRequest{{ID: "s-002", Name: "a", Config: testConfig(2)}, {ID: "s-003", Config: testConfig(3)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-004", Config: refConfig(4, "east@v1"), Params: &p}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-005", Config: refConfig(5, "east@v1")}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "", Config: testConfig(6)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-007", Config: testConfig(7)}, {ID: "s-007", Config: testConfig(8)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-009", Config: testConfig(9)}, {ID: "s-008", Config: testConfig(8)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-001", Config: testConfig(9)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-010", Config: testConfig(10)}}, Bag: BagRequest{App: "shapes"}},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"cells":[{"id":"s-011","config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"model":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24}},"epoch":7}],"bag":{"app":"shapes","jobs":2},"group":1}`))
	models := newModelCache()

	f.Fuzz(func(t *testing.T, in []byte) {
		// The shard allocates what a group asks for, up to the size
		// bounds; skip inputs asking for more than a handful, so each
		// input stays fast.
		var req shardSweepRequest
		decodeErr := json.Unmarshal(in, &req)
		for _, c := range req.Cells {
			if c.Config.VMs > 64 {
				return
			}
		}
		if len(req.Cells) > 8 || req.Bag.Jobs > 1000 {
			return
		}
		m, post := fuzzShard(t, models, instant)
		mark, before := markOf(m), m.StoreStats().Appended
		rec := post(shardSweepPath, in)
		appended := m.StoreStats().Appended - before
		// rising reports whether the cells' ids rise strictly from above
		// the pre-request mark; low whether one is at or below it.
		rising, low, prev := true, false, mark
		for _, c := range req.Cells {
			n, ok := ids.Parse("s-", c.ID)
			rising = rising && ok && n > prev
			low = low || ok && n <= mark
			prev = n
		}
		if rec.Code == http.StatusConflict {
			checkRefusal(t, rec, mark, appended)
		}
		if low && rec.Code != http.StatusConflict && rec.Code != http.StatusBadRequest {
			t.Fatalf("group naming an id at or below the mark %d answered %d, want 409 or 400", mark, rec.Code)
		}
		if rec.Code/100 != 2 {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("sweep group answered %d, want a 2xx or a 4xx", rec.Code)
			}
			if appended != 0 {
				t.Fatalf("refused sweep group (%d) appended %d records", rec.Code, appended)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("%d for a body that does not decode: %v", rec.Code, decodeErr)
		}
		if !rising {
			t.Fatalf("%d for a group whose ids do not rise strictly from above the mark %d", rec.Code, mark)
		}
		if len(req.Cells) > 0 && markOf(m) != prev {
			t.Fatalf("%d left the mark at %d, want %d", rec.Code, markOf(m), prev)
		}
		var out struct {
			Cells []cellOutcome `json:"cells"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable %d answer %q: %v", rec.Code, rec.Body, err)
		}
		if len(out.Cells) != len(req.Cells) {
			t.Fatalf("%d cells answered for %d requested", len(out.Cells), len(req.Cells))
		}
		for k, c := range out.Cells {
			if c.SessionID != "" && c.SessionID != req.Cells[k].ID {
				t.Fatalf("cell %d ran as %s, sent as %s", k, c.SessionID, req.Cells[k].ID)
			}
			if (c.Error == "") == (c.Report == nil) {
				t.Fatalf("cell %d answered error %q and report %v; want exactly one", k, c.Error, c.Report)
			}
		}
	})
}

// FuzzRemoteError feeds arbitrary shard error replies — a status, a
// Retry-After header and a body — to replyError, the router's decode of
// them. Nothing may panic. The error keeps the shard's status; from an
// {"error": ...} body it takes the message and the id_seq, from a
// non-negative whole-seconds Retry-After the hint; and written back out
// with writeErr, as the router's API answers its client, it decodes to the
// same error again. The seeds are a 409 with id_seq, a 503 with
// Retry-After, a non-JSON body, and a negative Retry-After.
//
//	go test -run '^$' -fuzz '^FuzzRemoteError$' -fuzztime 20s ./internal/serve
func FuzzRemoteError(f *testing.F) {
	f.Add(uint16(409), "", []byte(`{"error":"session id s-004 is at or below shard 1's id high-water mark 9","id_seq":9}`))
	f.Add(uint16(503), "1", []byte(`{"error":"shard degraded"}`))
	f.Add(uint16(502), "", []byte("upstream connect error\n"))
	f.Add(uint16(429), "-3", []byte(`{"error":"session limit reached"}`))

	// reply serves one error reply through a recorder and decodes it.
	reply := func(code int, retryAfter string, body []byte) *apiError {
		rec := httptest.NewRecorder()
		if retryAfter != "" {
			rec.Header().Set("Retry-After", retryAfter)
		}
		rec.WriteHeader(code)
		rec.Write(body)
		ae, ok := replyError(rec.Result()).(*apiError)
		if !ok {
			panic("replyError returned a non-apiError")
		}
		return ae
	}
	f.Fuzz(func(t *testing.T, status uint16, retryAfter string, body []byte) {
		code := 400 + int(status)%200
		got := reply(code, retryAfter, body)
		if got.code != code || got.Error() == "" {
			t.Fatalf("reply %d decoded as %d %q", code, got.code, got.Error())
		}
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" && (got.Error() != eb.Error || got.idSeq != eb.IDSeq) {
			t.Fatalf("body %q decoded as %q id_seq %d", body, got.Error(), got.idSeq)
		}
		if n, err := strconv.Atoi(retryAfter); err == nil && n >= 0 && got.retryAfter != n {
			t.Fatalf("Retry-After %q decoded as %d", retryAfter, got.retryAfter)
		}
		if got.retryAfter < 0 {
			t.Fatalf("Retry-After %q decoded as %d", retryAfter, got.retryAfter)
		}
		rec := httptest.NewRecorder()
		writeErr(rec, got.code, got)
		again := reply(rec.Code, rec.Header().Get("Retry-After"), rec.Body.Bytes())
		if again.code != got.code || again.Error() != got.Error() || again.retryAfter != got.retryAfter || again.idSeq != got.idSeq {
			t.Fatalf("written back out, %d %q (retry %d, id_seq %d) reads %d %q (retry %d, id_seq %d)",
				got.code, got.Error(), got.retryAfter, got.idSeq, again.code, again.Error(), again.retryAfter, again.idSeq)
		}
	})
}

// fakeShardReply is a RoundTripper that answers every request with one
// status and body, as a shard might, or as anything else listening on its
// address might.
type fakeShardReply struct {
	status int
	body   []byte
}

func (f fakeShardReply) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: f.status, Status: strconv.Itoa(f.status) + " " + http.StatusText(f.status),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": {"application/json"}},
		Body:    io.NopCloser(bytes.NewReader(f.body)),
		Request: r,
	}, nil
}

// fuzzRemote returns a RemoteBackend whose every call gets status 100+n
// (n mod 500) and body, with no retries.
func fuzzRemote(status uint16, body []byte) *RemoteBackend {
	return NewRemoteBackend("127.0.0.1:1", &RemoteOptions{
		Client:  &http.Client{Transport: fakeShardReply{status: 100 + int(status)%500, body: body}},
		Retries: -1,
	})
}

// checkRemoteOutcome requires a call to end in a value for a success
// status, or in an apiError, which is what the API turns into its reply.
func checkRemoteOutcome(t *testing.T, status uint16, err error) {
	t.Helper()
	var ae *apiError
	switch code := 100 + int(status)%500; {
	case err != nil && !errors.As(err, &ae):
		t.Fatalf("status %d: error %v is not an apiError", code, err)
	case err == nil && code >= 400:
		t.Fatalf("status %d answered without an error", code)
	}
}

// FuzzRemoteListSessions feeds a fuzzed status and body to the router's
// decoder of a shard's session listing (GET /api/sessions): it returns the
// statuses or an apiError, and never panics.
//
//	go test -run '^$' -fuzz '^FuzzRemoteListSessions$' -fuzztime 20s ./internal/serve
func FuzzRemoteListSessions(f *testing.F) {
	listing, _ := json.Marshal(listResponse{Sessions: []SessionStatus{{ID: "s-001", State: StateDone, Config: testConfig(1)}}})
	f.Add(uint16(100), listing)
	f.Add(uint16(100), []byte(`{"sessions":null}`))
	f.Add(uint16(100), []byte(`{"sessions":[{"progress":{"classes":[{}]}}]}`))
	f.Add(uint16(100), []byte(`{"sessions":"s-001"}`))
	f.Add(uint16(304), []byte(`{"error":"Not Found"}`))
	f.Add(uint16(402), []byte("upstream connect error\n"))
	f.Add(uint16(104), []byte{})
	f.Fuzz(func(t *testing.T, status uint16, body []byte) {
		_, err := fuzzRemote(status, body).listSessions()
		checkRemoteOutcome(t, status, err)
	})
}

// FuzzRemoteShardInfo feeds a fuzzed status and body to the router's
// decoder of GET /shard/info: it returns the info or an apiError, and
// never panics.
//
//	go test -run '^$' -fuzz '^FuzzRemoteShardInfo$' -fuzztime 20s ./internal/serve
func FuzzRemoteShardInfo(f *testing.F) {
	m := NewManager(1)
	info, _ := m.shardInfo()
	m.Close()
	raw, _ := json.Marshal(info)
	f.Add(uint16(100), raw)
	f.Add(uint16(100), []byte(`{"sessions":{"done":-1,"":3},"health":{"degraded":true},"store":{},"id_seq":9}`))
	f.Add(uint16(100), []byte(`{"id_seq":1e99}`))
	f.Add(uint16(403), []byte(`{"error":"shard degraded","id_seq":4}`))
	f.Add(uint16(304), []byte(`{"error":`))
	f.Fuzz(func(t *testing.T, status uint16, body []byte) {
		_, err := fuzzRemote(status, body).shardInfo()
		checkRemoteOutcome(t, status, err)
	})
}

// FuzzRemoteSweep feeds a fuzzed status and body to the router's decoder
// of a sweep group's answer (POST /shard/sweep) for a group of n cells: it
// returns one outcome per cell or an apiError, and never panics. A
// success status whose cells decode but number other than the group's is
// a 503, as an unreachable shard is.
//
//	go test -run '^$' -fuzz '^FuzzRemoteSweep$' -fuzztime 20s ./internal/serve
func FuzzRemoteSweep(f *testing.F) {
	rep := batch.Report{JobsCompleted: 3, TotalCost: 0.5}
	two, _ := json.Marshal(map[string][]cellOutcome{"cells": {{SessionID: "s-001", Report: &rep}, {Error: "bag: no app"}}})
	f.Add(uint16(100), uint8(2), two)
	f.Add(uint16(100), uint8(3), two)
	f.Add(uint16(100), uint8(0), []byte(`{"cells":[]}`))
	f.Add(uint16(100), uint8(1), []byte(`{"cells":null}`))
	f.Add(uint16(100), uint8(1), []byte(`{"cells":[{"report":{"jobs_completed":"x"}}]}`))
	f.Add(uint16(309), uint8(1), []byte(`{"error":"session id s-004 is at or below shard 1's id high-water mark 9","id_seq":9}`))
	f.Fuzz(func(t *testing.T, status uint16, n uint8, body []byte) {
		req := shardSweepRequest{Bag: BagRequest{App: "shapes", Jobs: 3}}
		for i := range int(n % 8) {
			req.Cells = append(req.Cells, shardCreateRequest{ID: ids.Padded("s-", i+1, 3), Config: testConfig(1)})
		}
		out, err := fuzzRemote(status, body).sweep(context.Background(), req)
		checkRemoteOutcome(t, status, err)
		if err == nil && len(out) != len(req.Cells) {
			t.Fatalf("%d outcomes for a group of %d", len(out), len(req.Cells))
		}
		var answer struct {
			Cells []cellOutcome `json:"cells"`
		}
		if code := 100 + int(status)%500; code < 400 && json.NewDecoder(bytes.NewReader(body)).Decode(&answer) == nil &&
			len(answer.Cells) != len(req.Cells) && httpCode(err) != http.StatusServiceUnavailable {
			t.Fatalf("%d cells answered for a group of %d: error %v, want a 503", len(answer.Cells), len(req.Cells), err)
		}
	})
}
