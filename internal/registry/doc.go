// Package registry is the online model registry of the serving layer: a
// concurrency-safe, versioned store of fitted preemption models that learns
// from observed preemptions instead of staying frozen at boot — the paper's
// Section 8 extension ("what if preemption characteristics change?") turned
// from offline library code into a live subsystem.
//
// # Entries and versions
//
// Each entry is keyed by a client-chosen name and describes one preemption
// environment (VM type, zone). An entry holds an immutable, append-only
// sequence of model versions: version 1 is registered explicitly (from
// bathtub parameters or a fit recipe), and later versions are published by
// refits. Every version carries provenance — the fit family, the fitted
// bathtub parameters, the sample count and KS distance of the fit, the
// request-clock timestamp, and the source ("register", "recipe", "refit",
// "auto-refit") — so an operator can always answer "which model produced
// this report, and where did it come from?".
//
// Versions are never mutated or deleted. A model reference of the form
// "name@vN" therefore denotes the same parameters forever, which is what
// lets sessions pin a version at create time and keep their reports
// byte-identical and replayable no matter how many refits happen later
// (see ResolveRef and internal/serve).
//
// # Drift detection and refit
//
// Each entry feeds its observation stream (observed VM lifetimes, ingested
// in batches) through a changepoint.Detector comparing rolling windows
// against the entry's latest model. Once the detector flags a change point,
// subsequent observations accumulate in a refit buffer; when the buffer
// reaches the entry's MinRefitSamples, the entry is refit-ready. Refits are
// gated twice, mirroring the detector's own debouncing:
//
//   - the detector requires Patience consecutive suspicious windows before
//     flagging, so transient demand spikes do not trigger refits, and
//   - a refit needs MinRefitSamples post-flag observations, so the new
//     model is fitted to the new regime, not to the handful of samples
//     that happened to trip the detector.
//
// A refit fits the entry's family to the buffered post-change samples
// (fit.ByFamily), publishes the result as the next version, resets the
// detector against the new model, and clears the buffer. With AutoRefit
// enabled the serving layer runs this in the background as soon as an
// ingest reports readiness; otherwise a client triggers it explicitly.
// The detector's observation count is the entry's high-water mark and is
// never reset — it survives refits and (through State/RestoreEntry)
// process restarts.
//
// # Resolution
//
// In a sharded service only one registry exists, on the control plane, and
// references are resolved there, once, when a session is created. The
// serving layer pins the reference to "name@vN" and hands the shard that
// runs the session the pinned version's Params. Those numbers never change
// for that version, so a shard needs no copy of the registry, and no
// registry state is replicated anywhere.
//
// # Persistence
//
// The registry itself is memory-only; internal/serve makes it durable by
// logging creates, version publications, and observation batches to its
// snapshot+WAL store and replaying them at boot. Snapshot() and
// RestoreEntry exist for the compacted form: versions plus the detector
// state and refit buffer, so a compacted boot does not replay the full
// observation history. A session's durable create record carries its
// pinned version's Params, so a restarted shard rebuilds pinned sessions
// from its own log without asking the registry.
package registry
