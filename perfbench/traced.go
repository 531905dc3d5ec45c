package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/store"
)

// The traced server wires the service's layers in this process, as
// batchsvc does, with a timing wrapper at each layer boundary:
//
//	timedHandler   around serve.NewAPI(...).Handler()      (edge)
//	timedBackend   embedding *serve.Router                 (router / shards)
//	timedStore     embedding each shard's *store.Log       (WAL)
//	timedTransport as RemoteOptions.Client's RoundTripper  (shard protocol)
//
// Every span carries an operation id (the session id, or the sweep's
// arrival index) so the edge's self time can subtract the layer calls made
// on its behalf. Spans stay in memory while recording is on and are written
// out when recording stops.

// opRef is an operation id that may only be known after the span opens: a
// create learns its session id when the backend returns.
type opRef struct{ id atomic.Pointer[string] }

func (r *opRef) set(id string) { r.id.Store(&id) }

func (r *opRef) get() string {
	if p := r.id.Load(); p != nil {
		return *p
	}
	return ""
}

type opKey struct{}

func refFrom(ctx context.Context) *opRef {
	ref, _ := ctx.Value(opKey{}).(*opRef)
	return ref
}

type span struct {
	name       string
	ref        *opRef
	start, end int64 // ns since the recorder's epoch
	// detached spans belong to no request: WAL records a run goroutine
	// writes after the request that started the run has returned.
	detached bool
}

// recorder collects spans and counters while on.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	runToDone map[string]float64 // ms from Run to the session's Done, by id

	apiBytes atomic.Int64
	sweeps   atomic.Int64
	rtCount  atomic.Int64
	rtErrors atomic.Int64
	rtBytes  atomic.Int64
	rtNanos  atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), runToDone: map[string]float64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func fixedRef(id string) *opRef {
	ref := &opRef{}
	ref.set(id)
	return ref
}

// timedHandler records one edge span per API request.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	route, id := classifyRoute(r)
	ref := &opRef{}
	if route == "sweep" {
		id = "sweep-" + strconv.FormatInt(h.rec.sweeps.Add(1), 10)
	}
	if id != "" {
		ref.set(id)
	}
	body := &countingReader{ReadCloser: r.Body}
	r2 := r.WithContext(context.WithValue(r.Context(), opKey{}, ref))
	r2.Body = body
	cw := &countingWriter{ResponseWriter: w}
	start := h.rec.now()
	h.next.ServeHTTP(cw, r2)
	h.rec.add(span{name: "api." + route, ref: ref, start: start, end: h.rec.now()})
	h.rec.apiBytes.Add(body.n + cw.n)
}

// classifyRoute names the API route and extracts the session id.
func classifyRoute(r *http.Request) (route, id string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case r.URL.Path == "/api/sweep" && r.Method == http.MethodPost:
		return "sweep", ""
	case len(parts) == 2 && parts[1] == "sessions" && r.Method == http.MethodPost:
		return "create", ""
	case len(parts) == 3 && parts[1] == "sessions" && r.Method == http.MethodDelete:
		return "delete", parts[2]
	case len(parts) == 4 && parts[1] == "sessions":
		return parts[3], parts[2]
	}
	return "other", ""
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

// countingWriter counts response body bytes; Unwrap keeps SSE flushing
// working through http.ResponseController.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// timedBackend times the Backend calls the API makes into the router.
type timedBackend struct {
	*serve.Router
	rec *recorder
}

func (b *timedBackend) timed(name string, ref *opRef) func() {
	if !b.rec.on.Load() {
		return func() {}
	}
	start := b.rec.now()
	return func() { b.rec.add(span{name: name, ref: ref, start: start, end: b.rec.now()}) }
}

func (b *timedBackend) CreateCtx(ctx context.Context, name string, cfg serve.SessionConfig) (*serve.Session, error) {
	ref := refFrom(ctx)
	if ref == nil {
		ref = &opRef{}
	}
	done := b.timed("backend.create", ref)
	s, err := b.Router.CreateCtx(ctx, name, cfg)
	if err == nil && ref.get() == "" {
		ref.set(s.ID())
	}
	done()
	return s, err
}

func (b *timedBackend) Get(id string) (*serve.Session, error) {
	defer b.timed("backend.get", fixedRef(id))()
	return b.Router.Get(id)
}

func (b *timedBackend) Delete(id string) error {
	defer b.timed("backend.delete", fixedRef(id))()
	return b.Router.Delete(id)
}

// Run also times Run-to-Done: the queue wait plus the simulation. The
// waiting goroutine ends when the session does; every session of a run
// ends (done or deleted) before the server stops.
func (b *timedBackend) Run(s *serve.Session) error {
	if !b.rec.on.Load() {
		return b.Router.Run(s)
	}
	start := time.Now()
	done := b.timed("backend.run", fixedRef(s.ID()))
	err := b.Router.Run(s)
	done()
	if err == nil {
		go func() {
			<-s.Done()
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			b.rec.mu.Lock()
			b.rec.runToDone[s.ID()] = ms
			b.rec.mu.Unlock()
		}()
	}
	return err
}

func (b *timedBackend) SweepCtx(ctx context.Context, req serve.SweepRequest) (serve.SweepReport, error) {
	ref := refFrom(ctx)
	if ref == nil {
		ref = &opRef{}
	}
	defer b.timed("backend.sweep", ref)()
	return b.Router.SweepCtx(ctx, req)
}

// timedStore times WAL appends (marshal, write, fsync).
type timedStore struct {
	*store.Log
	rec *recorder
}

func (s *timedStore) Append(kind, id string, v any) (store.Record, error) {
	if !s.rec.on.Load() {
		return s.Log.Append(kind, id, v)
	}
	start := s.rec.now()
	rec, err := s.Log.Append(kind, id, v)
	terminal := kind == "done" || kind == "failed" || kind == "cancelled"
	s.rec.add(span{name: "store.append", ref: fixedRef(id), start: start, end: s.rec.now(), detached: terminal})
	return rec, err
}

// timedTransport times shard-protocol round trips, from the request to the
// response body's close.
type timedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	ref := refFrom(req.Context())
	if ref == nil {
		ref = fixedRef(sessionFromPath(req.URL.Path))
	}
	// Long-polls and event streams wait on the simulation; they count as
	// round trips but not as transport time.
	waits := strings.HasSuffix(req.URL.Path, "/wait") || strings.HasSuffix(req.URL.Path, "/events")
	start := t.rec.now()
	t.rec.rtCount.Add(1)
	if req.ContentLength > 0 {
		t.rec.rtBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		// A caller that gave up (a relay unsubscribed) is not a transport
		// failure.
		if req.Context().Err() == nil {
			t.rec.rtErrors.Add(1)
		}
		t.finish(ref, start, waits)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		t.rec.rtErrors.Add(1)
	}
	resp.Body = &rtBody{ReadCloser: resp.Body, done: func(n int64) {
		t.rec.rtBytes.Add(n)
		t.finish(ref, start, waits)
	}}
	return resp, nil
}

func (t *timedTransport) finish(ref *opRef, start int64, waits bool) {
	end := t.rec.now()
	if !waits {
		t.rec.rtNanos.Add(end - start)
	}
	t.rec.add(span{name: "remote.rt", ref: ref, start: start, end: end})
}

// sessionFromPath extracts {id} from /api/sessions/{id}/... and
// /shard/sessions/{id}/....
func sessionFromPath(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for i, p := range parts {
		if p == "sessions" && i+1 < len(parts) {
			return parts[i+1]
		}
	}
	return ""
}

type rtBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *rtBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *rtBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// dedupPoller accumulates planner dedup joins across the schedule cache's
// per-key counters, which an LRU eviction takes away with the key.
type dedupPoller struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	last  map[string]uint64
	total uint64
}

func startDedupPoller() *dedupPoller {
	d := &dedupPoller{stop: make(chan struct{}), last: map[string]uint64{}}
	d.poll()
	d.total = 0
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.poll()
			}
		}
	}()
	return d
}

func (d *dedupPoller) poll() {
	seen := map[string]uint64{}
	for _, k := range policy.SharedPlannerSolveStats() {
		key := fmt.Sprintf("%s/%v/%v", k.Model, k.Delta, k.Step)
		prev, ok := d.last[key]
		switch {
		case ok && k.DedupWaits >= prev:
			d.total += k.DedupWaits - prev
		default: // new key, or a re-inserted planner with fresh counters
			d.total += k.DedupWaits
		}
		seen[key] = k.DedupWaits
	}
	d.last = seen
}

func (d *dedupPoller) finish() uint64 {
	close(d.stop)
	d.wg.Wait()
	d.poll()
	return d.total
}

// layerTotals is what the traced server reports for one recording window.
type layerTotals struct {
	// SelfMS and CallMS map span names to their median self time (edge
	// spans) or duration (backend spans), in milliseconds.
	SelfMS    map[string]float64 `json:"self_ms"`
	CallMS    map[string]float64 `json:"call_ms"`
	APIBytes  int64              `json:"api_bytes"`
	RunToDone map[string]float64 `json:"run_to_done_ms"`
	// Metrics are deltas of the Prometheus series summed over this process
	// and its shard child.
	Metrics    map[string]float64 `json:"metrics"`
	DedupJoins uint64             `json:"dedup_joins"`
	RTCount    int64              `json:"rt_count"`
	RTErrors   int64              `json:"rt_errors"`
	RTBytes    int64              `json:"rt_bytes"`
	RTMS       float64            `json:"rt_ms"`
}

// scrapedSeries are the Prometheus series the per-layer metrics read.
var scrapedSeries = []string{
	"batchsvc_wal_append_seconds_count", "batchsvc_wal_append_seconds_sum",
	"batchsvc_wal_fsync_seconds_count", "batchsvc_wal_bytes",
	"batchsvc_dp_solve_seconds_count", "batchsvc_dp_solve_seconds_sum",
	"batchsvc_schedule_cache_hits", "batchsvc_schedule_cache_misses",
	"batchsvc_trace_spans_dropped",
}

// parseSeries sums each wanted series over its label sets.
func parseSeries(text []byte, into map[string]float64) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		for _, want := range scrapedSeries {
			if name == want {
				into[name] += v
			}
		}
	}
}

type tracedServer struct {
	rec        *recorder
	remoteAddr string
	spansPath  string

	mu     sync.Mutex
	base   map[string]float64
	poller *dedupPoller
}

func (ts *tracedServer) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	obs.Default().WriteTo(w)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	parseSeries(buf.Bytes(), out)
	if ts.remoteAddr != "" {
		resp, err := http.Get("http://" + ts.remoteAddr + "/metrics")
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		parseSeries(raw, out)
	}
	return out, nil
}

func (ts *tracedServer) handleStart(w http.ResponseWriter, r *http.Request) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	base, err := ts.scrape()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ts.base = base
	ts.poller = startDedupPoller()
	ts.rec.on.Store(true)
	w.WriteHeader(http.StatusNoContent)
}

func (ts *tracedServer) handleStop(w http.ResponseWriter, r *http.Request) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.poller == nil {
		http.Error(w, "recording was not started", http.StatusConflict)
		return
	}
	ts.rec.on.Store(false)
	joins := ts.poller.finish()
	ts.poller = nil
	end, err := ts.scrape()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for k := range end {
		end[k] -= ts.base[k]
	}
	ts.rec.mu.Lock()
	spans := ts.rec.spans
	runToDone := ts.rec.runToDone
	ts.rec.spans, ts.rec.runToDone = nil, map[string]float64{}
	ts.rec.mu.Unlock()
	parents := assignParents(spans)
	tot := layerTotals{
		SelfMS:     medianSelf(spans, parents),
		CallMS:     medianDurations(spans, "backend."),
		APIBytes:   ts.rec.apiBytes.Swap(0),
		RunToDone:  runToDone,
		Metrics:    end,
		DedupJoins: joins,
		RTCount:    ts.rec.rtCount.Swap(0),
		RTErrors:   ts.rec.rtErrors.Swap(0),
		RTBytes:    ts.rec.rtBytes.Swap(0),
		RTMS:       float64(ts.rec.rtNanos.Swap(0)) / 1e6,
	}
	if err := writeSpans(ts.spansPath, spans, parents); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(tot)
}

// assignParents links each span to the innermost span of the same
// operation whose interval contains it (-1 for none).
func assignParents(spans []span) []int {
	parents := make([]int, len(spans))
	byOp := map[string][]int{}
	for i, s := range spans {
		parents[i] = -1
		if id := s.ref.get(); id != "" && !s.detached {
			byOp[id] = append(byOp[id], i)
		}
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.end > sb.end
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].end < spans[i].end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				parents[i] = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
	return parents
}

// medianSelf is each edge route's median self time: the span's duration
// minus the part of it its child spans cover.
func medianSelf(spans []span, parents []int) map[string]float64 {
	children := map[int][]int{}
	for i, p := range parents {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := map[string][]float64{}
	for i, s := range spans {
		if !strings.HasPrefix(s.name, "api.") {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, reach int64 = 0, s.start
		for _, k := range kids {
			from, to := max(spans[k].start, reach), spans[k].end
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.name] = append(self[s.name], float64(s.end-s.start-covered)/1e6)
	}
	out := map[string]float64{}
	for name, v := range self {
		out[name] = median(v)
	}
	return out
}

func medianDurations(spans []span, prefix string) map[string]float64 {
	d := map[string][]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.name, prefix) {
			d[s.name] = append(d[s.name], float64(s.end-s.start)/1e6)
		}
	}
	out := map[string]float64{}
	for name, v := range d {
		out[name] = median(v)
	}
	return out
}

func writeSpans(path string, spans []span, parents []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(map[string]any{
			"id": i, "name": s.name, "op": s.ref.get(), "parent": parents[i],
			"start_us": s.start / 1e3, "end_us": s.end / 1e3,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveTraced is the "serve-traced" mode: the traced wiring of the layers,
// serving the public API plus POST /bench/start and /bench/stop.
func serveTraced(args []string) error {
	fs := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "API listen address")
	dataDir := fs.String("data-dir", "", "store directory (shard i under store.ShardDir)")
	shards := fs.Int("shards", 1, "shard count")
	batchsvc := fs.String("batchsvc", "", "batchsvc binary for the remote shard")
	remoteAddr := fs.String("remote-addr", "", "run shard 1 as a batchsvc -shard-server child on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.InitLog("text", os.Stderr); err != nil {
		return err
	}
	parallelism := runtime.GOMAXPROCS(0)
	rec := newRecorder()
	topology := make([]string, *shards)
	var child *proc
	if *remoteAddr != "" {
		topology[1] = *remoteAddr
		var err error
		// The child stays in this process's group, so perfbench's group
		// kill reaches it even if this process dies first.
		child, err = startProc(*batchsvc, []string{
			"-shard-server", *remoteAddr, "-shard-index", "1",
			"-parallelism", strconv.Itoa((parallelism + *shards - 1) / *shards),
			"-data-dir", store.ShardDir(*dataDir, 1),
			"-shutdown-timeout", "5s",
		}, filepath.Join(filepath.Dir(*dataDir), "shard-1.log"), false)
		if err != nil {
			return err
		}
		defer func() {
			if err := child.stop(10 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}()
		if err := waitPing(child, *remoteAddr); err != nil {
			return err
		}
	}
	client := &http.Client{Transport: &timedTransport{inner: http.DefaultTransport, rec: rec}}
	router, err := serve.NewRouterTopology(topology, parallelism, &serve.RemoteOptions{Client: client})
	if err != nil {
		return err
	}
	stores := make([]serve.Store, *shards)
	for i := range stores {
		if topology[i] != "" {
			continue
		}
		dir := store.ShardDir(*dataDir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		stores[i] = &timedStore{Log: st, rec: rec}
	}
	if err := router.Restore(stores); err != nil {
		return err
	}
	if child != nil {
		router.SyncRemotes()
	}
	defer router.Close()

	ts := &tracedServer{rec: rec, remoteAddr: *remoteAddr,
		spansPath: filepath.Join(filepath.Dir(*dataDir), "spans.jsonl")}
	mux := http.NewServeMux()
	mux.Handle("/", &timedHandler{next: serve.NewAPI(&timedBackend{Router: router, rec: rec}).Handler(), rec: rec})
	mux.HandleFunc("POST /bench/start", ts.handleStart)
	mux.HandleFunc("POST /bench/stop", ts.handleStop)
	connCtx, closeConns := context.WithCancel(context.Background())
	defer closeConns()
	srv := &http.Server{Addr: *addr, Handler: mux,
		BaseContext: func(net.Listener) context.Context { return connCtx }}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	closeConns()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	router.Wait()
	return nil
}

// waitPing waits until a shard server answers its health check.
func waitPing(p *proc, addr string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("shard server exited during start-up: %v", p.err)
		}
		if resp, err := client.Get("http://" + addr + "/shard/ping"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("shard server %s not answering within 30s", addr)
}
