package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/placement"
	"repro/internal/serve"
)

const (
	// clients is the closed loop's concurrency. One client keeps a single
	// request in flight, so the driver, the router and a shard child are
	// never all runnable at once and the 2-CPU machine the benchmark was
	// tuned on has a CPU to spare: with two clients, p99_ms on
	// lifecycle-remote spread about three times wider between runs, because
	// it measured the scheduler queueing three processes on two CPUs.
	clients = 1
	// checkedLifecycleOps and checkedSweepOps are how many leading
	// operations of every run are compared byte for byte with the
	// in-process reference.
	checkedLifecycleOps = 8
	checkedSweepOps     = 2
)

// client is one closed-loop client: it sends its next request only after
// the previous one finished, over its own keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the response body, failing unless the
// status is want.
func (c *client) do(method, path, traceID string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// opResult is one operation's outcome. A failed operation has err set;
// wrong marks a failure that is a wrong output rather than a refusal.
type opResult struct {
	index      int
	start, end time.Time
	remote     bool
	session    string
	err        error
	wrong      bool
}

// runner drives one workload's operations against a server.
type runner struct {
	w    workloadSpec
	gen  *generator
	refs map[int][][]byte // reference reports of the checked operations
	// ref, when set, is interleaved with the measured window.
	ref  *refServer
	next atomic.Int64

	mu      sync.Mutex
	results []opResult
}

func (r *runner) checked() int {
	if r.w.sweep {
		return checkedSweepOps
	}
	return checkedLifecycleOps
}

func (r *runner) runOp(c *client, i int) opResult {
	res := opResult{index: i, start: time.Now()}
	if r.w.sweep {
		res.wrong, res.err = r.sweepOp(c, i)
	} else {
		res.session, res.wrong, res.err = r.lifecycleOp(c, i)
		res.remote = r.w.distribute && res.session != "" && placement.Shard(res.session, r.w.shards) != 0
	}
	res.end = time.Now()
	return res
}

// lifecycleOp runs create -> bags -> run -> events to EOF -> report ->
// delete and checks the report.
func (r *runner) lifecycleOp(c *client, i int) (id string, wrong bool, err error) {
	op := r.gen.lifecycle(i)
	tid := r.gen.traceID(i)
	raw, err := c.do("POST", "/api/sessions", tid, map[string]any{"config": op.Config}, http.StatusCreated)
	if err != nil {
		return "", false, err
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		return "", true, fmt.Errorf("create: bad status %q", raw)
	}
	id = st.ID
	defer func() {
		if err != nil {
			// Leave nothing behind for the next operation to trip on.
			_, _ = c.do("DELETE", "/api/sessions/"+id, "", nil, http.StatusOK)
		}
	}()
	path := "/api/sessions/" + id
	raw, err = c.do("POST", path+"/bags", "", op.Bag, http.StatusAccepted)
	if err != nil {
		return id, false, err
	}
	var bag struct {
		Submitted int `json:"submitted"`
	}
	if err := json.Unmarshal(raw, &bag); err != nil || bag.Submitted != op.Bag.Jobs {
		return id, true, fmt.Errorf("bags: submitted %q, want %d jobs", raw, op.Bag.Jobs)
	}
	if _, err := c.do("POST", path+"/run", "", nil, http.StatusAccepted); err != nil {
		return id, false, err
	}
	raw, err = c.do("GET", path+"/events", "", nil, http.StatusOK)
	if err != nil {
		return id, false, err
	}
	if state := lastSSEState(raw); state != string(serve.StateDone) {
		return id, true, fmt.Errorf("events: final state %q, want done", state)
	}
	rep, err := c.do("GET", path+"/report", "", nil, http.StatusOK)
	if err != nil {
		return id, false, err
	}
	var report struct {
		JobsCompleted int `json:"jobs_completed"`
	}
	if err := json.Unmarshal(rep, &report); err != nil || report.JobsCompleted != op.Bag.Jobs {
		return id, true, fmt.Errorf("report: %d of %d jobs completed", report.JobsCompleted, op.Bag.Jobs)
	}
	if ref, ok := r.refs[i]; ok && !bytes.Equal(bytes.TrimSpace(rep), ref[0]) {
		return id, true, fmt.Errorf("report of operation %d differs from the reference:\n got %s\nwant %s", i, bytes.TrimSpace(rep), ref[0])
	}
	if _, err := c.do("DELETE", path, "", nil, http.StatusOK); err != nil {
		return id, false, err
	}
	return id, false, nil
}

// lastSSEState returns the state field of the stream's last "state" event.
func lastSSEState(stream []byte) string {
	var state, event string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:") && event == "state":
			var st serve.SessionStatus
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &st) == nil {
				state = string(st.State)
			}
		}
	}
	return state
}

// sweepResponse is the sweep report with each cell's report kept raw for
// byte comparison.
type sweepResponse struct {
	Cells []struct {
		SessionID string          `json:"session_id"`
		Error     string          `json:"error"`
		Report    json.RawMessage `json:"report"`
	} `json:"cells"`
	Partial bool `json:"partial"`
}

// sweepOp posts one sweep, checks every cell, and deletes the cells.
func (r *runner) sweepOp(c *client, i int) (bool, error) {
	req := r.gen.sweep(i)
	raw, err := c.do("POST", "/api/sweep", r.gen.traceID(i), req, http.StatusOK)
	if err != nil {
		return false, err
	}
	var rep sweepResponse
	if err := json.Unmarshal(raw, &rep); err != nil {
		return true, fmt.Errorf("sweep: %v", err)
	}
	var errs []string
	for _, cell := range rep.Cells {
		if cell.SessionID != "" {
			if _, err := c.do("DELETE", "/api/sessions/"+cell.SessionID, "", nil, http.StatusOK); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	if rep.Partial || len(rep.Cells) != sweepCells() {
		return true, fmt.Errorf("sweep: partial=%v with %d cells, want %d", rep.Partial, len(rep.Cells), sweepCells())
	}
	ref, checked := r.refs[i]
	for k, cell := range rep.Cells {
		var cr struct {
			JobsCompleted int `json:"jobs_completed"`
		}
		if cell.Error != "" || json.Unmarshal(cell.Report, &cr) != nil || cr.JobsCompleted != req.Bag.Jobs {
			return true, fmt.Errorf("sweep cell %d: error %q, %d of %d jobs", k, cell.Error, cr.JobsCompleted, req.Bag.Jobs)
		}
		if checked && !bytes.Equal(cell.Report, ref[k]) {
			return true, fmt.Errorf("sweep %d cell %d differs from the reference:\n got %s\nwant %s", i, k, cell.Report, ref[k])
		}
	}
	if len(errs) > 0 {
		return false, fmt.Errorf("deleting sweep cells: %s", strings.Join(errs, "; "))
	}
	return false, nil
}

func (r *runner) record(res opResult) {
	r.mu.Lock()
	r.results = append(r.results, res)
	r.mu.Unlock()
}

// loop runs the closed-loop clients until the deadline; each finishes the
// operation it has in flight.
func (r *runner) loop(ctx context.Context, cs []*client, until time.Time) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				r.record(r.runOp(c, int(r.next.Add(1)-1)))
			}
		}(c)
	}
	wg.Wait()
}

// window is what one measured window observed: every operation started
// inside it, and the server group's CPU time across it. No operation is in
// flight when the window opens or closes, because the closed-loop clients
// finish their warm-up operations before it opens and the window lasts
// until the last operation started inside it has ended.
type window struct {
	seconds float64
	// completed counts the operations that succeeded; ops holds every one.
	completed int
	ops       []opResult
	cpuS      float64
	// latMS holds the latencies of the completed operations in scope: all
	// of them, or on a distributed topology those homed on a remote slot.
	latMS []float64
}

// phaseHooks lets the traced run bracket the window.
type phaseHooks struct {
	start, stop func() error
}

// measure runs the checked operations one by one, a warm-up outside the
// window, and then the measured window.
func (r *runner) measure(ctx context.Context, s *server, seconds time.Duration, hooks phaseHooks) (window, error) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(s.base)
		defer cs[i].close()
	}
	for i := 0; i < r.checked(); i++ {
		r.record(r.runOp(cs[0], i))
	}
	r.next.Store(int64(r.checked()))
	warm := min(3*time.Second, seconds/3)
	r.loop(ctx, cs, time.Now().Add(warm))
	if hooks.start != nil {
		if err := hooks.start(); err != nil {
			return window{}, err
		}
	}
	var w window
	if r.ref != nil {
		if err := r.ref.warm(ctx, time.Now().Add(time.Second/2)); err != nil {
			return w, err
		}
	}
	cpu0, err := groupCPU(s.p.pid())
	if err != nil {
		return w, err
	}
	t0 := time.Now()
	if r.ref == nil {
		r.loop(ctx, cs, t0.Add(seconds))
		w.seconds = time.Since(t0).Seconds()
	} else if w.seconds, err = r.interleave(ctx, cs, seconds); err != nil {
		return w, err
	}
	cpu1, err := groupCPU(s.p.pid())
	if err != nil {
		return w, err
	}
	w.cpuS = cpu1 - cpu0
	if hooks.stop != nil {
		if err := hooks.stop(); err != nil {
			return w, err
		}
	}
	if err := ctx.Err(); err != nil {
		return w, err
	}
	for _, res := range r.results {
		if res.start.Before(t0) {
			continue
		}
		w.ops = append(w.ops, res)
		if res.err != nil {
			continue
		}
		w.completed++
		if !r.w.distribute || res.remote {
			w.latMS = append(w.latMS, float64(res.end.Sub(res.start))/float64(time.Millisecond))
		}
	}
	return w, nil
}

// interleave cuts the window into refSegments segments, each the workload
// followed by the reference, and returns the seconds spent on the
// workload. The client finishes its operation in flight before the
// reference runs, so the two never overlap.
func (r *runner) interleave(ctx context.Context, cs []*client, seconds time.Duration) (float64, error) {
	cpu0, err := groupCPU(r.ref.p.pid())
	if err != nil {
		return 0, err
	}
	per := seconds / refSegments
	refPart := time.Duration(float64(per) * refShare)
	var work time.Duration
	for k := 0; k < refSegments && ctx.Err() == nil; k++ {
		start := time.Now()
		r.loop(ctx, cs, start.Add(per-refPart))
		end := time.Now()
		work += end.Sub(start)
		if err := r.ref.loop(ctx, end.Add(refPart)); err != nil {
			return 0, err
		}
	}
	cpu1, err := groupCPU(r.ref.p.pid())
	r.ref.cpuS = cpu1 - cpu0
	return work.Seconds(), err
}

// opsPerS is the window's completion rate.
func (w window) opsPerS() float64 { return float64(w.completed) / w.seconds }

// cpuMSPerOp is the server group's CPU time per completed operation.
func (w window) cpuMSPerOp() float64 { return 1000 * w.cpuS / float64(w.completed) }

// tally counts every operation the run issued and the failures among them.
func (r *runner) tally() (attempted, failed, wrong int, firstErr error) {
	for _, res := range r.results {
		attempted++
		if res.err != nil {
			failed++
			if res.wrong {
				wrong++
			}
			if firstErr == nil {
				firstErr = res.err
			}
		}
	}
	return
}
