// Package obs is the service's zero-dependency telemetry layer: a
// concurrency-safe metric registry with Prometheus text exposition, an
// in-process request tracer, and the process-wide structured-logging
// setup. Every other package feeds it; it imports nothing but the
// standard library.
//
// # No external dependencies
//
// The repository's constraint is a stdlib-only build, so this package
// hand-rolls the small subset of the Prometheus ecosystem the serving
// tier needs rather than importing client_golang: counters and gauges
// are single atomic words, histograms are fixed arrays of atomic bucket
// counters, and exposition is a deterministic text render (families
// sorted by name, series by label block) in format version 0.0.4. Any
// Prometheus-compatible scraper can consume GET /metrics unchanged.
//
// # Histogram bucket scheme
//
// Histograms use fixed, precomputed bucket bounds — no resizing, no
// quantile sketches — because a fixed ladder makes Observe a binary
// search plus two atomic increments, cheap enough for the WAL append
// path and the per-request HTTP path that the ServiceSessions benchmark
// gates. The default ladder (DefBuckets) is geometric with ratio
// ~2.2–2.5 spanning 50µs to 30s:
//
//	50µs 100µs 250µs 500µs 1ms 2.5ms 5ms 10ms 25ms 50ms
//	100ms 250ms 500ms 1s 2.5s 5s 10s 30s (+Inf)
//
// One shared ladder covers the tier's three latency regimes — WAL
// fsyncs (~100µs–1ms), cold DP solves (~20ms), and end-to-end sweep
// requests (seconds) — so dashboards can compare any two series without
// per-metric bucket translation. Buckets are cumulative in exposition,
// per the Prometheus convention.
//
// # Metric updates vs. scrape-time collection
//
// Hot paths (HTTP requests, WAL appends, session transitions) update
// atomic series inline, through series they resolved once: the
// Registry's get-or-create lookups render a label block and take the
// registry lock, so they belong in set-up code, and a hot path holds the
// *Counter or *Histogram they return. A series appears on /metrics from
// its first lookup on, so code that wants a series listed only once it
// has something to count resolves it on first use, not ahead of time. Everything that already has an authoritative
// source of truth — store stats, schedule-cache hit rates, DP solve
// aggregates, breaker states — is exported through
// GaugeFunc callbacks evaluated at scrape time, so /metrics and
// /api/stats read the same underlying counters and the hot path pays
// nothing for them.
//
// # Tracing
//
// A trace ID is minted at the HTTP edge (or adopted from an inbound
// X-Trace-Id header), carried via context.Context, and propagated over
// the shard protocol in the same header. Instrumented hops emit Span
// records into a bounded ring buffer (default 4096 spans, batchsvc
// -trace-buffer). The ring is paid for as spans arrive: a tracer holds no
// storage until its first span, then doubles its slice as it fills, up to
// exactly the limit, so a process boots without allocating it and a full
// ring holds no spare capacity. GET /api/trace/{id} on the router merges
// its own buffer with each shard's /shard/trace/{id}, reconstructing the
// path edge → router → shard → WAL persist → terminal state for any
// recent request. Untraced work (benchmarks or libraries driving a Manager
// directly) emits nothing: span helpers are no-ops for an empty trace
// ID, and every metric type is nil-receiver-safe so optional
// instrumentation points cost one branch when unwired.
package obs
