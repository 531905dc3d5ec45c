package serve

// Telemetry plumbing for the serving tier: the serve-side metric series
// (HTTP request latency, per-shard session counters, WAL latency, breaker
// gauges), the HTTP middleware that mints trace IDs and
// measures every API request, and the structured-logging helpers. All
// series live in the process-wide obs.Default() registry that GET /metrics
// renders; see internal/obs for the exposition machinery and the
// no-external-deps rationale.

import (
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/store"
)

// Process-wide scrape-time gauges: sources that already keep their own
// counters (the policy schedule cache, the trace ring) are read at scrape
// time instead of double-counted on the hot path.
func init() {
	reg := obs.Default()
	reg.GaugeFunc("batchsvc_schedule_cache_hits",
		"Process-wide schedule-cache hits by artifact kind (read at scrape time).",
		func() float64 { return float64(policy.SharedCacheStats().SchedulerHits) },
		"kind", "scheduler")
	reg.GaugeFunc("batchsvc_schedule_cache_hits",
		"Process-wide schedule-cache hits by artifact kind (read at scrape time).",
		func() float64 { return float64(policy.SharedCacheStats().PlannerHits) },
		"kind", "planner")
	reg.GaugeFunc("batchsvc_schedule_cache_misses",
		"Process-wide schedule-cache misses by artifact kind (read at scrape time).",
		func() float64 { return float64(policy.SharedCacheStats().SchedulerMisses) },
		"kind", "scheduler")
	reg.GaugeFunc("batchsvc_schedule_cache_misses",
		"Process-wide schedule-cache misses by artifact kind (read at scrape time).",
		func() float64 { return float64(policy.SharedCacheStats().PlannerMisses) },
		"kind", "planner")
	reg.GaugeFunc("batchsvc_trace_spans_dropped",
		"Spans overwritten in the trace ring since startup; a growing value means -trace-buffer is undersized.",
		func() float64 { return float64(obs.DefaultTracer().Dropped()) })
}

// shardLabel renders a shard index as its metric label value.
func shardLabel(i int) string { return strconv.Itoa(i) }

// serveMetrics holds one shard label's pre-resolved series, so the
// session lifecycle pays pointer derefs and atomic adds, never a
// label-rendering map lookup in the registry.
type serveMetrics struct {
	created  *obs.Counter
	terminal map[State]*obs.Counter
	// scenarios counts created sessions by scheduling policy: the spot
	// scenarios (reuse, memoryless) versus the constrained on-demand one.
	scenarios map[string]*obs.Counter
}

// shardObs is one shard label's telemetry bundle, registered with the
// registry exactly once per process: the lifecycle counters every Manager
// incarnation for the shard shares, and scrape-time gauges that read
// whichever Manager currently owns the shard through cur. The indirection
// keeps obsInit nearly free — Managers are churned per-test and per-boot,
// and counter registration must not ride the construction path.
type shardObs struct {
	met serveMetrics
	cur atomic.Pointer[Manager]
}

var (
	shardObsMu sync.Mutex
	shardObsBy = map[int]*shardObs{}
)

// newShardObs registers the shard label's counters and gauges.
func newShardObs(shard int) *shardObs {
	reg := obs.Default()
	label := shardLabel(shard)
	so := &shardObs{met: serveMetrics{
		created: reg.Counter("batchsvc_sessions_created_total",
			"Sessions created, by shard.", "shard", label),
		terminal:  map[State]*obs.Counter{},
		scenarios: map[string]*obs.Counter{},
	}}
	for _, pol := range []string{PolicyReuse, PolicyMemoryless, PolicyOnDemand} {
		so.met.scenarios[pol] = reg.Counter("batchsvc_scenario_sessions_total",
			"Sessions created, by scheduling policy: reuse and memoryless run on constrained-preemption (preemptible) VMs; on-demand is the non-preemptible baseline.",
			"shard", label, "policy", pol)
	}
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		so.met.terminal[st] = reg.Counter("batchsvc_sessions_terminal_total",
			"Sessions reaching a terminal state, by shard and state.",
			"shard", label, "state", string(st))
	}
	reg.GaugeFunc("batchsvc_session_queue_depth",
		"Admitted session runs not yet finished (running plus queued for a worker slot), by shard.",
		func() float64 {
			m := so.cur.Load()
			if m == nil {
				return 0
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.inflightRuns)
		}, "shard", label)
	reg.GaugeFunc("batchsvc_sessions_live",
		"Live (undeleted) sessions registered on the shard.",
		func() float64 {
			m := so.cur.Load()
			if m == nil {
				return 0
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.sessions))
		}, "shard", label)
	reg.GaugeFunc("batchsvc_store_degraded",
		"1 while the shard's store is degraded read-only, else 0.",
		func() float64 {
			if m := so.cur.Load(); m != nil && m.isDegraded() {
				return 1
			}
			return 0
		}, "shard", label)
	return so
}

// obsInit (re)binds the manager to its shard's telemetry bundle. It runs
// at construction and again whenever the shard index changes
// (SetShardIndex, router assembly); the bundle registers on first use and
// after that binding is a map lookup plus a pointer store, so the latest
// manager for a shard label owns its gauges.
func (m *Manager) obsInit() {
	shardObsMu.Lock()
	so := shardObsBy[m.shard]
	if so == nil {
		so = newShardObs(m.shard)
		shardObsBy[m.shard] = so
	}
	// A re-homed manager (SetShardIndex on a shard-server child) must not
	// leave the old label's gauges reading it — that would double-report
	// the same sessions under two shard labels on one process.
	for _, prev := range shardObsBy {
		if prev != so {
			prev.cur.CompareAndSwap(m, nil)
		}
	}
	shardObsMu.Unlock()
	so.cur.Store(m)
	m.met = &so.met
}

// storeInstrumenter is the optional store interface carrying latency
// histograms into the WAL's append path (*store.Log implements it).
type storeInstrumenter interface {
	Instrument(appendHist, fsyncHist *obs.Histogram)
}

// instrumentStore wires the shard-labeled WAL series to an attached store:
// append/fsync latency inline in the hot path, the compaction and size
// counters read from store.Stats at scrape time.
func (m *Manager) instrumentStore(st Store) {
	reg := obs.Default()
	shard := shardLabel(m.shard)
	if ins, ok := st.(storeInstrumenter); ok {
		ins.Instrument(
			reg.Histogram("batchsvc_wal_append_seconds",
				"Durable WAL append latency in seconds (marshal through fsync), by shard.", nil, "shard", shard),
			reg.Histogram("batchsvc_wal_fsync_seconds",
				"WAL fsync latency in seconds, by shard.", nil, "shard", shard),
		)
	}
	storeGauge := func(name, help string, read func(s store.Stats) float64) {
		reg.GaugeFunc(name, help, func() float64 {
			st := m.StoreStats()
			if st == nil {
				return 0
			}
			return read(*st)
		}, "shard", shard)
	}
	storeGauge("batchsvc_wal_compactions",
		"Store compactions since the store was opened, by shard.",
		func(s store.Stats) float64 { return float64(s.Compactions) })
	storeGauge("batchsvc_wal_records",
		"Records currently in the WAL (appended since the last compaction), by shard.",
		func(s store.Stats) float64 { return float64(s.WALRecords) })
	storeGauge("batchsvc_wal_bytes",
		"Bytes currently in the WAL (appended since the last compaction), by shard.",
		func(s store.Stats) float64 { return float64(s.WALBytes) })
}

// slogger returns the shard's structured logger: every line from the
// serving tier carries component and shard fields.
func (m *Manager) slogger() *slog.Logger {
	return obs.Logger("serve").With("shard", m.shard)
}

// breakerStateValue maps a breaker state name onto the gauge scale
// (0 closed, 1 half-open, 2 open).
func breakerStateValue(state string) float64 {
	switch state {
	case breakerOpen:
		return 2
	case breakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// edge is the API's ServeMux together with each registered route's
// request series. It is the API's edge middleware: it pulls the inbound
// X-Trace-Id (minting one otherwise) into the request context, echoes it
// on the response, and records per-route latency and status counts plus
// one edge span per request; its mux answers unknown routes and methods
// with the JSON error payload itself. The route label is the pattern the
// mux matched, so label cardinality stays bounded by the route table.
type edge struct {
	mux       *jsonMux
	routes    map[string]*routeMetrics // by pattern; read-only once built
	unmatched *routeMetrics            // the mux's own 404s and 405s
}

func newEdge() *edge {
	return &edge{
		mux:       newJSONMux(),
		routes:    map[string]*routeMetrics{},
		unmatched: &routeMetrics{route: "unmatched"},
	}
}

// handle registers h for pattern, with the route's request series.
func (e *edge) handle(pattern string, h http.HandlerFunc) {
	e.mux.Handle(pattern, h)
	e.routes[pattern] = &routeMetrics{route: pattern}
}

func (e *edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, traceID := obs.TraceFromRequest(r)
	r = r.WithContext(ctx)
	w.Header().Set(obs.TraceHeader, traceID)
	ew := &statusWriter{ResponseWriter: w}
	start := time.Now()
	e.mux.ServeHTTP(ew, r)
	elapsed := time.Since(start)
	// The mux records the matched pattern on r itself; 404s and 405s
	// match none.
	rm, ok := e.routes[r.Pattern]
	if !ok {
		rm = e.unmatched
	}
	code := ew.code
	if code == 0 {
		code = http.StatusOK
	}
	seconds, requests := rm.series(code)
	seconds.Observe(elapsed.Seconds())
	requests.Inc()
	obs.DefaultTracer().Emit(obs.Span{
		TraceID:    traceID,
		Component:  "api",
		Name:       "http.request",
		Shard:      -1,
		Detail:     r.Method + " " + r.URL.Path + " -> " + strconv.Itoa(code),
		Start:      start,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// statusWriter keeps the first status written through it, for the edge's
// request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int // 0 until a status is written
}

// Unwrap exposes the underlying writer so http.NewResponseController can
// reach Flush (needed by the SSE endpoint) through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// routeMetrics is one route's request series: its latency histogram and a
// counter per status code it has answered. Each series is looked up in the
// registry on the route's first request with that outcome, not when the
// handler is built, so /metrics lists exactly the series requests have
// touched; from then on a request pays an atomic load and a short scan.
type routeMetrics struct {
	route string
	cur   atomic.Pointer[routeSeries]
	mu    sync.Mutex // serialises lookups that grow cur
}

// routeSeries is an immutable set of one route's resolved series; a new
// status code replaces it with a copy one counter longer.
type routeSeries struct {
	seconds *obs.Histogram
	codes   []statusCount
}

// statusCount is a route's request counter for one status code.
type statusCount struct {
	code int
	n    *obs.Counter
}

// series returns the route's latency histogram and its request counter
// for code.
func (rm *routeMetrics) series(code int) (*obs.Histogram, *obs.Counter) {
	if rs := rm.cur.Load(); rs != nil {
		if n := rs.count(code); n != nil {
			return rs.seconds, n
		}
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	next := &routeSeries{}
	if rs := rm.cur.Load(); rs != nil {
		if n := rs.count(code); n != nil {
			return rs.seconds, n
		}
		*next = *rs
	}
	reg := obs.Default()
	if next.seconds == nil {
		next.seconds = reg.Histogram("batchsvc_http_request_seconds",
			"API request latency in seconds, by matched route.", nil,
			"route", rm.route)
	}
	n := reg.Counter("batchsvc_http_requests_total",
		"API requests served, by matched route and status code.",
		"route", rm.route, "status", strconv.Itoa(code))
	next.codes = append(slices.Clip(next.codes), statusCount{code, n})
	rm.cur.Store(next)
	return next.seconds, n
}

// count returns the counter for code, nil while it is unresolved.
func (rs *routeSeries) count(code int) *obs.Counter {
	for _, sc := range rs.codes {
		if sc.code == code {
			return sc.n
		}
	}
	return nil
}

// withShardTrace lifts the shard protocol's X-Trace-Id header into the
// request context for the /shard endpoints (the mounted /api surface does
// its own extraction at its edge). It also refuses, with a 503 and nothing
// applied, a request that starts after the deadline its router stamped on
// it (deadlineHeader): the router has already answered it, so a mutation
// that waited out its deadline in a restarting shard's socket backlog must
// not reach the next incarnation. Requests without the header are served.
func withShardTrace(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(obs.TraceHeader); id != "" {
			r = r.WithContext(obs.WithTrace(r.Context(), id))
			w.Header().Set(obs.TraceHeader, id)
		}
		if v := r.Header.Get(deadlineHeader); v != "" {
			if ns, err := strconv.ParseInt(v, 10, 64); err == nil && time.Now().UnixNano() > ns {
				writeErr(w, http.StatusServiceUnavailable, shardUnavailable(
					fmt.Errorf("%s %s arrived after its router's deadline; not applied", r.Method, r.URL.Path)))
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}
