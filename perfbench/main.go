// Command perfbench is the repository's end-to-end benchmark: a closed-loop
// load driver that runs the batch service (cmd/batchsvc) as a client would,
// over loopback HTTP, in one of three topologies, and checks every output.
// See README.md for the workloads, metrics and tracing.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench -batchsvc BIN --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones of a
// traced in-process run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// setupRepeats is how many times a run starts a server to time set-up;
// the last one serves the run.
const setupRepeats = 9

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-traced" {
		if err := serveTraced(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve-traced:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve-ref" {
		if err := serveRef(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve-ref:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(drive(os.Args[1:]))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are extra lines for the human-readable summary.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

type options struct {
	w       workloadSpec
	seed    uint64
	seconds time.Duration
	// root is the run's scratch directory, removed when the run ends;
	// keep receives what outlives it (the traced run's spans).
	root, keep string
	batchsvc   string
}

func drive(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: lifecycle-local, lifecycle-remote or sweep-cold")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build")
	batchsvc := fs.String("batchsvc", "", "batchsvc binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || *batchsvc == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload NAME, --seconds > 0, --trace 0|1 and -batchsvc BIN:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(clients, runtime.NumCPU()))
	if err := becomeSubreaper(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The in-process reference manager logs like the service does.
	if err := obs.InitLog("text", io.Discard); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	keep := filepath.Join(*root, ".bench_build")
	runDir := filepath.Join(keep, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	opts := options{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), root: runDir, keep: keep, batchsvc: *batchsvc}

	calBefore := calibrate()
	var res result
	if *trace == 0 {
		res, err = endToEnd(ctx, opts)
	} else {
		res, err = tracedRun(ctx, opts)
	}
	calAfter := calibrate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.notes = append(res.notes, fmt.Sprintf("calibration kernel: %.2f ms before, %.2f ms after (%+.1f%%; diagnostic, not gated)",
		calBefore, calAfter, 100*(calAfter-calBefore)/calBefore))
	printResult(os.Stdout, w.name, *seed, res)
	return 0
}

func printResult(out io.Writer, workload string, seed uint64, res result) {
	fmt.Fprintf(out, "perfbench %s seed=%d correct=%v attempted=%d failed=%d\n",
		workload, seed, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "  "+n)
	}
	raw, _ := json.Marshal(res)
	fmt.Fprintln(out, string(raw))
}

var calibrationSink uint64

// calibrate times a fixed integer kernel, in milliseconds, so machine-speed
// drift shows beside the results.
func calibrate() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x % 1023
	}
	calibrationSink = acc
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// endToEnd is the untraced run: set-up timed over several fresh servers,
// then the checked operations, a warm-up and the measured window on the
// last one.
func endToEnd(ctx context.Context, o options) (result, error) {
	gen := newGenerator(o.w, o.seed)
	r := &runner{w: o.w, gen: gen}
	refs, err := referenceReports(o.w, gen, r.checked())
	if err != nil {
		return result{}, err
	}
	r.refs = refs
	l := &launcher{root: o.root, batchsvc: o.batchsvc}
	var setups []float64
	var srv *server
	var stopErrs []error
	for k := 0; k < setupRepeats; k++ {
		s, err := l.start(ctx, o.w, inMemory)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.Seconds())
		if k == setupRepeats-1 {
			srv = s
			break
		}
		stopErrs = append(stopErrs, s.p.stop(15*time.Second))
	}
	ref, err := startRef(ctx, o.root)
	if err != nil {
		srv.p.kill()
		return result{}, err
	}
	r.ref = ref
	win, err := r.measure(ctx, srv, o.seconds, phaseHooks{})
	var heap memStats
	if err == nil {
		heap, err = readMemStats(srv.pprof, true)
	}
	stopErr := errors.Join(append(stopErrs, srv.p.stop(15*time.Second), ref.stop())...)
	if err != nil {
		return result{}, err
	}
	if win.completed == 0 || len(win.latMS) == 0 {
		return result{}, errors.New("no operation in scope completed inside the window")
	}
	res := r.summary()
	res.Correct = res.Correct && stopErr == nil
	if stopErr != nil {
		res.notes = append(res.notes, "FAILED: "+stopErr.Error())
	}
	res.set("setup_s", median(setups), "s")
	// The timing figures are normalised to the reference's nominal speed,
	// each by the matching figure of the reference.
	avg, s50, s99, scpu := ref.speed()
	ops, p50, p99, cpuMS := win.opsPerS(), quantile(win.latMS, 0.50), quantile(win.latMS, 0.99), win.cpuMSPerOp()
	res.set("ops_per_s", ops/avg, "1/s")
	res.set("p50_ms", p50*s50, "ms")
	res.set("p99_ms", p99*s99, "ms")
	res.set("cpu_ms_per_op", cpuMS*scpu, "ms")
	res.set("live_heap_mb", float64(heap.heapAlloc)/(1<<20), "MB")
	res.set("success_ratio", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
	scope := "all operations"
	if o.w.distribute {
		scope = "sessions homed on the remote slot"
	}
	res.notes = append(res.notes,
		fmt.Sprintf("latency samples: %d (%s); %d beyond p99", len(win.latMS), scope, len(win.latMS)/100),
		fmt.Sprintf("window: %.2f s, %d operations completed", win.seconds, win.completed),
		fmt.Sprintf("set-up samples (s): %.4f", setups),
		fmt.Sprintf("measured, before normalisation: ops_per_s %.6g, p50_ms %.6g, p99_ms %.6g, cpu_ms_per_op %.6g", ops, p50, p99, cpuMS),
		fmt.Sprintf("reference: %d operations, mean %.6g ms, p50 %.6g ms, p99 %.6g ms, server CPU %.6g ms/op; speed by mean %.6g, p50 %.6g, p99 %.6g, CPU %.6g",
			len(ref.lat), mean(ref.lat), quantile(ref.lat, 0.50), quantile(ref.lat, 0.99), refNominalCPUMS/scpu, avg, s50, s99, scpu))
	return res, nil
}

// summary fills correct, attempted and failed from every operation issued.
func (r *runner) summary() result {
	attempted, failed, wrong, firstErr := r.tally()
	res := result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if firstErr != nil {
		res.notes = append(res.notes, fmt.Sprintf("FAILED: %d operations (%d wrong outputs); first: %v", failed, wrong, firstErr))
	}
	return res
}

// tracedRun measures the untraced service and then the traced in-process
// wiring, each for half the window, and reports per-layer metrics from the
// traced half.
func tracedRun(ctx context.Context, o options) (result, error) {
	gen := newGenerator(o.w, o.seed)
	plain := &runner{w: o.w, gen: gen}
	refs, err := referenceReports(o.w, gen, plain.checked())
	if err != nil {
		return result{}, err
	}
	plain.refs = refs
	half := o.seconds / 2
	l := &launcher{root: o.root, batchsvc: o.batchsvc}

	srv, err := l.start(ctx, o.w, durable)
	if err != nil {
		return result{}, err
	}
	// The runtime figures come from this untraced half, so the traced
	// half's instrumentation does not count in them.
	var mem0, mem1 memStats
	plainHooks := phaseHooks{
		start: func() (err error) { mem0, err = readMemStats(srv.pprof, false); return },
		stop:  func() (err error) { mem1, err = readMemStats(srv.pprof, false); return },
	}
	winPlain, err := plain.measure(ctx, srv, half, plainHooks)
	stopPlain := srv.p.stop(15 * time.Second)
	if err != nil {
		return result{}, err
	}

	tr := &runner{w: o.w, gen: gen, refs: refs}
	ts, err := l.start(ctx, o.w, traced)
	if err != nil {
		return result{}, err
	}
	var tot layerTotals
	hooks := phaseHooks{
		start: func() error { return postJSON(ts.base+"/bench/start", nil) },
		stop:  func() error { return postJSON(ts.base+"/bench/stop", &tot) },
	}
	winTraced, err := tr.measure(ctx, ts, half, hooks)
	stopTraced := ts.p.stop(15 * time.Second)
	if err != nil {
		return result{}, err
	}
	if winPlain.completed == 0 || len(winTraced.ops) == 0 {
		return result{}, errors.New("no operation completed inside a window")
	}

	res := plain.summary()
	trSum := tr.summary()
	res.Correct = res.Correct && trSum.Correct && stopPlain == nil && stopTraced == nil
	res.Attempted += trSum.Attempted
	res.Failed += trSum.Failed
	res.notes = append(res.notes, trSum.notes...)
	for _, err := range []error{stopPlain, stopTraced} {
		if err != nil {
			res.notes = append(res.notes, "FAILED: "+err.Error())
		}
	}
	if err := layerMetrics(&res, o.w, gen, tot, winTraced); err != nil {
		return result{}, err
	}
	plainN := float64(len(winPlain.ops))
	res.set("go.alloc_kb_per_op", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/plainN, "KiB/op")
	res.set("go.gc_per_op", float64(mem1.numGC-mem0.numGC)/plainN, "1/op")
	res.set("trace.overhead_ratio", winTraced.opsPerS()/winPlain.opsPerS(), "ratio")
	// Keep the spans past the run directory's removal, one file per
	// workload, overwritten by the next traced run.
	spans := filepath.Join(o.keep, "spans-"+o.w.name+".jsonl")
	if err := os.Rename(filepath.Join(ts.dir, "spans.jsonl"), spans); err != nil {
		return result{}, err
	}
	res.notes = append(res.notes, fmt.Sprintf("per-op figures are over the %d operations started in the traced window (go.* over the %.0f of the untraced batchsvc window); spans in %s",
		len(winTraced.ops), plainN, spans))
	return res, nil
}

func postJSON(url string, out any) error {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, raw)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// replaySample bounds how many of the traced window's sessions are
// replayed through the batch library alone.
const (
	replayLifecycles = 48
	replaySweeps     = 2
)

// layerMetrics turns the traced server's totals and the batch replays into
// the per-layer metrics, normalised by the operations the window started.
func layerMetrics(res *result, w workloadSpec, gen *generator, tot layerTotals, win window) error {
	n := float64(len(win.ops))
	perOp := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := tot.Metrics

	for _, route := range []string{"create", "bags", "run", "report", "delete", "sweep"} {
		res.set("api."+route+".self_ms", tot.SelfMS["api."+route], "ms")
	}
	res.set("api.bytes_per_op", perOp(float64(tot.APIBytes)), "B/op")
	for _, call := range []string{"create", "run", "sweep"} {
		res.set("backend."+call+"_ms", tot.CallMS["backend."+call], "ms")
	}

	var sims, waits []float64
	var steps int64
	replayed := 0
	for _, op := range win.ops {
		if op.err != nil {
			continue
		}
		if w.sweep {
			if replayed == replaySweeps {
				break
			}
			req := gen.sweep(op.index)
			cfgs, err := sweepCellConfigs(req)
			if err != nil {
				return err
			}
			for _, cfg := range cfgs {
				rp, err := replaySession(cfg, req.Bag)
				if err != nil {
					return err
				}
				sims = append(sims, rp.simMS)
				steps += rp.steps
			}
		} else {
			if replayed == replayLifecycles {
				break
			}
			lop := gen.lifecycle(op.index)
			rp, err := replaySession(lop.Config, lop.Bag)
			if err != nil {
				return err
			}
			sims = append(sims, rp.simMS)
			steps += rp.steps
			if rtd, ok := tot.RunToDone[op.session]; ok {
				waits = append(waits, rtd-rp.simMS)
			}
		}
		replayed++
	}
	res.set("session.queue_wait_ms", median(waits), "ms")
	res.set("batch.sim_ms", median(sims), "ms")
	res.set("batch.engine_steps_per_op", ratio(float64(steps), float64(replayed)), "1/op")

	hits, misses := m["batchsvc_schedule_cache_hits"], m["batchsvc_schedule_cache_misses"]
	res.set("policy.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("policy.lookups_per_op", perOp(hits+misses), "1/op")
	res.set("policy.solves_per_op", perOp(m["batchsvc_dp_solve_seconds_count"]), "1/op")
	res.set("policy.dedup_joins_per_op", perOp(float64(tot.DedupJoins)), "1/op")
	res.set("policy.build_ms", 1000*ratio(m["batchsvc_dp_solve_seconds_sum"], m["batchsvc_dp_solve_seconds_count"]), "ms")

	res.set("store.appends_per_op", perOp(m["batchsvc_wal_append_seconds_count"]), "1/op")
	res.set("store.append_ms", 1000*ratio(m["batchsvc_wal_append_seconds_sum"], m["batchsvc_wal_append_seconds_count"]), "ms")
	res.set("store.bytes_per_op", perOp(m["batchsvc_wal_bytes"]), "B/op")
	res.set("store.fsyncs_per_op", perOp(m["batchsvc_wal_fsync_seconds_count"]), "1/op")

	res.set("remote.round_trips_per_op", perOp(float64(tot.RTCount)), "1/op")
	res.set("remote.ms_per_op", perOp(tot.RTMS), "ms")
	res.set("remote.bytes_per_op", perOp(float64(tot.RTBytes)), "B/op")
	res.set("remote.errors_per_op", perOp(float64(tot.RTErrors)), "1/op")

	res.set("obs.spans_dropped_per_op", perOp(m["batchsvc_trace_spans_dropped"]), "1/op")
	res.notes = append(res.notes, fmt.Sprintf("batch replays: %d operations, %d sessions; queue-wait samples: %d; policy lookups: %.0f",
		replayed, len(sims), len(waits), hits+misses))
	return nil
}
