package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/policy"
)

// API exposes a serving backend — a single Manager or a sharded Router —
// over HTTP. See the package documentation for the route table and a
// walkthrough.
type API struct {
	b Backend
}

// NewAPI wraps a backend (a *Manager or a *Router).
func NewAPI(b Backend) *API {
	if b == nil {
		panic("serve: nil backend")
	}
	return &API{b: b}
}

// Handler returns the HTTP handler. Wrong methods on known paths yield a
// JSON 405 (with Allow set by the mux), unknown paths a JSON 404.
func (a *API) Handler() http.Handler {
	// The edge wraps the whole surface: it owns trace extraction, the JSON
	// form of the mux's errors and the per-route request metrics, labelled
	// by the pattern the mux matched so the route label never echoes raw
	// request paths.
	e := newEdge()
	e.handle("POST /api/sessions", a.handleCreate)
	e.handle("GET /api/sessions", a.handleList)
	e.handle("GET /api/sessions/{id}", a.homed(a.handleGet))
	e.handle("DELETE /api/sessions/{id}", a.homed(a.handleDelete))
	e.handle("POST /api/sessions/{id}/bags", a.homed(a.handleBags))
	e.handle("POST /api/sessions/{id}/estimate", a.homed(a.handleEstimate))
	e.handle("POST /api/sessions/{id}/run", a.homed(a.handleRun))
	e.handle("POST /api/sessions/{id}/cancel", a.homed(a.handleCancel))
	e.handle("GET /api/sessions/{id}/events", a.homed(a.handleEvents))
	e.handle("GET /api/sessions/{id}/report", a.homed(a.handleReport))
	e.handle("GET /api/sessions/{id}/jobs", a.homed(a.handleJobs))
	e.handle("GET /api/sessions/{id}/vms", a.homed(a.handleVMs))
	e.handle("POST /api/models", a.handleModelCreate)
	e.handle("GET /api/models", a.handleModelList)
	e.handle("GET /api/models/{name}", a.handleModelGet)
	e.handle("POST /api/models/{name}/observations", a.handleModelObservations)
	e.handle("POST /api/models/{name}/refit", a.handleModelRefit)
	e.handle("POST /api/sweep", a.handleSweep)
	e.handle("GET /api/stats", a.handleStats)
	e.handle("GET /api/trace/{id}", a.handleTrace)
	return e
}

// decodeStrict decodes one JSON value, rejecting unknown fields and
// trailing garbage. An empty body decodes to the zero value, so endpoints
// whose parameters are all optional accept bare POSTs. A canonical create,
// bag or shard create body is parsed by hand (parseWire); encoding/json
// decides every other.
func decodeStrict(r *http.Request, v any) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if len(bytes.TrimSpace(body)) == 0 || parseWire(body, v) {
		return nil
	}
	return decodeJSON(body, v)
}

// decodeJSON decodes body into v with encoding/json, rejecting unknown
// fields and anything but JSON whitespace after the value.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("decoding request: unexpected trailing data")
	}
	return nil
}

// writeJSON answers with v as json.Encoder writes it, newline included.
// The lifecycle's replies are encoded by the codec in wirejson.go; a value
// it cannot encode (a NaN) leaves the body empty, as Encode does.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	bp := wireBufs.Get().(*[]byte)
	b, ok, err := appendWire((*bp)[:0], v)
	switch {
	case !ok:
		_ = json.NewEncoder(w).Encode(v)
	case err == nil:
		b = append(b, '\n')
		_, _ = w.Write(b)
	}
	putWireBuf(bp, b)
}

// errorBody is the stable {"error": ...} payload every error response from
// this package carries; a shard's 409 adds its id high-water mark.
type errorBody struct {
	Error string `json:"error"`
	IDSeq int    `json:"id_seq,omitempty"`
}

// writeErr emits the structured error payload; every error response from
// this package carries the stable "error" key. Backpressure errors (503
// degraded, 429 admission) carry a Retry-After hint.
func writeErr(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		}
		body.IDSeq = ae.idSeq
	}
	writeJSON(w, code, body)
}

// jsonMux is a ServeMux that answers the requests none of its routes
// serve with the structured error payload itself: "/" answers an unknown
// path with a JSON 404, and every path registered under a method gets a
// method-less twin that answers the path's other methods with a JSON 405,
// its Allow header listing what the path serves as net/http's own 405
// would (HEAD with GET). Every pattern is registered before it serves.
type jsonMux struct {
	*http.ServeMux
	methods map[string][]string // by path: the methods registered on it
}

func newJSONMux() *jsonMux {
	m := &jsonMux{ServeMux: http.NewServeMux(), methods: map[string][]string{}}
	m.ServeMux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusNotFound)
	})
	return m
}

// Handle registers h for pattern, and a "METHOD /path" pattern's method as
// one the path allows.
func (m *jsonMux) Handle(pattern string, h http.Handler) {
	m.ServeMux.Handle(pattern, h)
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		return
	}
	if _, seen := m.methods[path]; !seen {
		m.ServeMux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Allow", strings.Join(m.methods[path], ", "))
			writeStatus(w, http.StatusMethodNotAllowed)
		})
	}
	methods := append(m.methods[path], method)
	if method == http.MethodGet {
		methods = append(methods, http.MethodHead)
	}
	slices.Sort(methods)
	m.methods[path] = slices.Compact(methods)
}

// HandleFunc registers h for pattern, as Handle does.
func (m *jsonMux) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	m.Handle(pattern, http.HandlerFunc(h))
}

// writeStatus answers with code, its status text as the error payload.
func writeStatus(w http.ResponseWriter, code int) {
	writeJSON(w, code, errorBody{Error: http.StatusText(code)})
}

// session resolves the {id} path value, writing the error itself on miss.
func (a *API) session(w http.ResponseWriter, r *http.Request) *Session {
	s, err := a.b.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, httpCode(err), err)
		return nil
	}
	return s
}

// homed wraps a session-scoped handler: a session whose home shard is
// remote has the request forwarded there as-is, and the shard's reply is
// the answer; h serves sessions that live in this process.
func (a *API) homed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rb := a.b.remoteHome(r.PathValue("id")); rb != nil {
			rb.forward(w, r)
			return
		}
		h(w, r)
	}
}

// createRequest is the POST /api/sessions body.
type createRequest struct {
	Name   string        `json:"name,omitempty"`
	Config SessionConfig `json:"config"`
}

func (a *API) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s, err := a.b.CreateCtx(r.Context(), req.Name, req.Config)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	sessions, shardErrs := a.b.ListPartial()
	out := listResponse{Sessions: sessions}
	if len(shardErrs) > 0 {
		// Partial-results contract: the reachable shards' sessions still
		// list, with one error entry per shard that could not answer.
		out.Partial = true
		out.Errors = shardErrs
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleGet(w http.ResponseWriter, r *http.Request) {
	if s := a.session(w, r); s != nil {
		writeJSON(w, http.StatusOK, s.Status())
	}
}

// The bags, run and delete replies. Their fields are declared in sorted
// key order, the order encoding/json writes a map's keys in, which is the
// wire form clients read (TestSmallReplyBytes pins it).
type (
	bagsReply struct {
		MeanRuntime float64 `json:"mean_runtime"`
		Submitted   int     `json:"submitted"`
	}
	runReply struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}
	deleteReply struct {
		Deleted string `json:"deleted"`
	}
)

func (a *API) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := a.b.Delete(r.PathValue("id")); err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, deleteReply{Deleted: r.PathValue("id")})
}

func (a *API) handleBags(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	var req BagRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, mean, err := s.SubmitBag(req)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, bagsReply{MeanRuntime: mean, Submitted: n})
}

func (a *API) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	var req BagRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	est, err := s.Estimate(req)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ideal_makespan_hours":    est.IdealMakespan,
		"expected_makespan_hours": est.ExpectedMakespan,
		"per_job_failure_prob":    est.PerJobFailureProb,
		"expected_cost_usd":       est.ExpectedCost,
	})
}

func (a *API) handleRun(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	if err := a.b.Run(s); err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, runReply{ID: s.ID(), State: StateRunning})
}

func (a *API) handleReport(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	rep, err := s.Report()
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (a *API) handleJobs(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	jobs, err := s.Jobs()
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (a *API) handleVMs(w http.ResponseWriter, r *http.Request) {
	s := a.session(w, r)
	if s == nil {
		return
	}
	vms, err := s.VMs()
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, vms)
}

func (a *API) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := a.b.SweepCtx(r.Context(), req)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// dpSolveStats is the wire form of the DP cold path's observability: the
// per-key planner solve counters plus process totals, so an operator can
// see how many expensive table builds ran, how many concurrent requests
// were deduplicated onto in-flight builds, and per-key solve latency.
type dpSolveStats struct {
	TotalSolves     uint64                   `json:"total_solves"`
	TotalDedupWaits uint64                   `json:"total_dedup_waits"`
	Inflight        int                      `json:"inflight"`
	Keys            []policy.PlannerKeyStats `json:"keys"`
}

func collectDPSolveStats() dpSolveStats {
	st := dpSolveStats{Keys: policy.SharedPlannerSolveStats()}
	for _, k := range st.Keys {
		st.TotalSolves += k.Solves
		st.TotalDedupWaits += k.DedupWaits
		st.Inflight += k.Inflight
	}
	return st
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.b.statsPayload())
}

// handleTrace returns the recorded spans for one trace ID, oldest first.
// On a Router the spans are merged from the local ring and every remote
// shard's, so one call shows the whole edge-to-WAL path. An unknown (or
// already evicted) trace returns an empty span list, not a 404: absence of
// spans is indistinguishable from eviction by design.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := a.b.Trace(id)
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
}

// statsPayload assembles GET /api/stats for a single-manager service; the
// Router's variant aggregates these per shard and adds a "shards" array.
func (m *Manager) statsPayload() map[string]any {
	payload := map[string]any{
		"sessions":       m.Stats().Sessions,
		"models":         m.ModelStats(),
		"schedule_cache": policy.SharedCacheStats(),
		"dp_solves":      collectDPSolveStats(),
		"health":         m.Health(),
	}
	if st := m.StoreStats(); st != nil {
		payload["store"] = st
	}
	return payload
}
