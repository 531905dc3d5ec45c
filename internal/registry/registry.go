package registry

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/changepoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fit"
)

// Sentinel errors callers branch on (the HTTP layer maps them to status
// codes).
var (
	// ErrNotFound reports an unknown entry name or version number.
	ErrNotFound = errors.New("registry: not found")
	// ErrExists reports a Create against an already-registered name.
	ErrExists = errors.New("registry: entry already exists")
	// ErrRefitInProgress reports a refit raced by another in-flight refit.
	ErrRefitInProgress = errors.New("registry: refit already in progress")
	// ErrNotReady reports a refit requested before the entry's change-point
	// flag fired or before MinRefitSamples post-flag observations arrived.
	ErrNotReady = errors.New("registry: not ready to refit")
)

// Params is the wire form of a fitted bathtub model's parameters (the
// paper's Equation 1 plus the deadline) — the payload every version's
// provenance carries.
type Params struct {
	A    float64 `json:"a"`
	Tau1 float64 `json:"tau1"`
	Tau2 float64 `json:"tau2"`
	B    float64 `json:"b"`
	L    float64 `json:"l"`
}

// Model builds the core model, validating the parameters first.
func (p Params) Model() (*core.Model, error) {
	if p.Tau1 <= 0 || p.Tau2 <= 0 || p.L <= 0 {
		return nil, fmt.Errorf("model parameters need tau1, tau2, l > 0 (got tau1=%v tau2=%v l=%v)",
			p.Tau1, p.Tau2, p.L)
	}
	bt := dist.NewBathtub(p.A, p.Tau1, p.Tau2, p.B, p.L)
	if !(bt.Raw(bt.L) > 0) {
		return nil, fmt.Errorf("model parameters carry no probability mass before the deadline")
	}
	return core.New(bt), nil
}

// ParamsOf extracts the wire parameters from a fitted bathtub distribution.
func ParamsOf(bt dist.Bathtub) Params {
	return Params{A: bt.A, Tau1: bt.Tau1, Tau2: bt.Tau2, B: bt.B, L: bt.L}
}

// Scenario names the preemption environment an entry models.
type Scenario struct {
	VMType string `json:"vm_type"`
	Zone   string `json:"zone"`
}

// Provenance records where a version's parameters came from.
type Provenance struct {
	// Family is the fit family ("bathtub"), or "manual" for versions
	// registered from explicit parameters. Refits reuse the entry's latest
	// fittable family.
	Family string `json:"family"`
	Params Params `json:"params"`
	// Samples is the number of lifetimes the fit consumed (0 for manual).
	Samples int `json:"samples,omitempty"`
	// KS is the fit's Kolmogorov-Smirnov distance to its samples.
	KS float64 `json:"ks,omitempty"`
	// FittedAt is the request-clock timestamp (RFC 3339) the version was
	// produced at; it is supplied by the serving layer and persisted, so
	// replayed versions keep their original timestamps.
	FittedAt string `json:"fitted_at,omitempty"`
	// Source is "register" (explicit params), "recipe" (fit recipe at
	// registration), "refit" (client-triggered), or "auto-refit".
	Source string `json:"source"`
}

// Version is one immutable published model version. Number is 1-based;
// "name@v1" is the entry's first version.
type Version struct {
	Number int `json:"version"`
	Provenance
}

// EntryConfig tunes an entry's drift detection and refit gating.
type EntryConfig struct {
	// Detector tunes the change-point detector (zero value: the
	// changepoint.DefaultConfig tuning).
	Detector changepoint.Config `json:"detector"`
	// AutoRefit asks the serving layer to refit in the background as soon
	// as an ingest reports refit-readiness.
	AutoRefit bool `json:"auto_refit,omitempty"`
	// MinRefitSamples is how many post-flag observations must accumulate
	// before a refit may run (default 300): refitting on fewer would fit
	// the new regime from the tail of a single suspicious window.
	MinRefitSamples int `json:"min_refit_samples,omitempty"`
}

// DefaultMinRefitSamples is the refit gate applied when an EntryConfig
// leaves MinRefitSamples zero.
const DefaultMinRefitSamples = 300

// withDefaults fills zero fields in (per detector field, so a client may
// override just the window or just the patience).
func (c EntryConfig) withDefaults() EntryConfig {
	def := changepoint.DefaultConfig()
	if c.Detector.Window == 0 {
		c.Detector.Window = def.Window
	}
	if c.Detector.Threshold == 0 {
		c.Detector.Threshold = def.Threshold
	}
	if c.Detector.Patience == 0 {
		c.Detector.Patience = def.Patience
	}
	if c.MinRefitSamples <= 0 {
		c.MinRefitSamples = DefaultMinRefitSamples
	}
	return c
}

// Validate rejects configs the detector would panic on.
func (c EntryConfig) Validate() error {
	d := c.Detector
	if d.Window < 5 {
		return fmt.Errorf("detector window %d too small (need >= 5)", d.Window)
	}
	if d.Threshold <= 0 || d.Threshold >= 1 {
		return fmt.Errorf("detector threshold %v outside (0,1)", d.Threshold)
	}
	if d.Patience < 1 {
		return fmt.Errorf("detector patience %d must be >= 1", d.Patience)
	}
	return nil
}

// entry is one named model stream. Fields are guarded by the Registry
// mutex; models[i] is the built form of versions[i].
type entry struct {
	name     string
	scenario Scenario
	cfg      EntryConfig
	versions []Version
	models   []*core.Model
	det      *changepoint.Detector
	// refitBuf accumulates post-flag observations — the samples a refit is
	// fitted to. It is bounded (refitBufCap) so an entry whose flag nobody
	// acts on cannot grow without limit; the most recent observations win.
	refitBuf []float64
	// refitting serializes refits: the fit runs outside the registry lock,
	// so a second refit (manual racing auto) must fail fast instead of
	// publishing a duplicate version.
	refitting bool
}

// refitBufCap bounds the refit buffer: plenty above any sane
// MinRefitSamples, small enough that an unattended flagged entry stays
// cheap to snapshot.
func (e *entry) refitBufCap() int {
	if c := 4 * e.cfg.MinRefitSamples; c > 2000 {
		return c
	}
	return 2000
}

// Info is the wire form of one entry: config, scenario, full version
// history, and the live detector readings.
type Info struct {
	Name     string   `json:"name"`
	Scenario Scenario `json:"scenario"`
	EntryConfig
	Versions []Version `json:"versions"`
	// Observations is the detector's high-water mark: every lifetime ever
	// ingested for this entry, surviving refits and restarts.
	Observations int  `json:"observations"`
	Flagged      bool `json:"flagged,omitempty"`
	// FlaggedAt is the observation index the change-point flag fired at.
	FlaggedAt int `json:"flagged_at,omitempty"`
	// RefitBuffered is the number of post-flag observations accumulated
	// toward MinRefitSamples.
	RefitBuffered int  `json:"refit_buffered,omitempty"`
	Refitting     bool `json:"refitting,omitempty"`
}

// Resolved is the outcome of resolving a model reference: the pinned
// version, whose Params are what a session built from the reference
// simulates.
type Resolved struct {
	Name     string
	Scenario Scenario
	Version  Version
	// Pinned is the fully qualified "name@vN" form the resolution pinned
	// to; resolving it again always yields the same version.
	Pinned string
}

// IngestResult summarizes one observation batch.
type IngestResult struct {
	Ingested     int  `json:"ingested"`
	Observations int  `json:"observations"`
	Flagged      bool `json:"flagged"`
	// NewlyFlagged marks that this batch completed the window that fired
	// the change-point flag.
	NewlyFlagged  bool `json:"newly_flagged,omitempty"`
	RefitBuffered int  `json:"refit_buffered,omitempty"`
	// RefitReady reports that the entry is flagged, has MinRefitSamples
	// buffered, and no refit is in flight.
	RefitReady bool `json:"refit_ready,omitempty"`
	// AutoRefit echoes the entry's mode so the caller can decide whether
	// readiness should launch a background refit.
	AutoRefit bool `json:"-"`
}

// Stats are the registry counters surfaced in /api/stats. The totals are
// derived from current state (deterministic across restarts); the flagged
// count is entries currently flagged.
type Stats struct {
	Entries              int    `json:"entries"`
	VersionsPublished    int    `json:"versions_published"`
	ObservationsIngested int    `json:"observations_ingested"`
	ChangePointsFlagged  uint64 `json:"change_points_flagged"`
	RefitsRun            int    `json:"refits_run"`
	FlaggedEntries       int    `json:"flagged_entries"`
}

// Registry is the concurrency-safe store of model entries. The zero value
// is not usable; call New.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string
	// flags counts change points ever flagged, including flags since
	// cleared by refits (state alone cannot recount those); RestoreEntry
	// primes it from restored detector state.
	flags uint64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// ParseRef splits a model reference — "name", "name@latest", or "name@vN"
// — into its name and version (0 meaning latest). It validates syntax
// only; Resolve checks existence.
func ParseRef(ref string) (name string, version int, err error) {
	name, ver, found := strings.Cut(ref, "@")
	if name == "" {
		return "", 0, fmt.Errorf("model ref %q has an empty name", ref)
	}
	if !found || ver == "latest" {
		return name, 0, nil
	}
	num, ok := strings.CutPrefix(ver, "v")
	if ok {
		if n, convErr := strconv.Atoi(num); convErr == nil && n >= 1 {
			return name, n, nil
		}
	}
	return "", 0, fmt.Errorf("model ref %q: version must be \"latest\" or \"vN\" (N >= 1)", ref)
}

// Create registers a new entry whose first version has the given
// provenance. The detector starts against the version-1 model. commit (if
// non-nil) is called under the registry lock after all validation and
// before the entry is applied: the serving layer durably logs the creation
// there, so the WAL's record order always matches the registry's apply
// order and a failed append leaves the registry untouched.
func (r *Registry) Create(name string, sc Scenario, cfg EntryConfig, prov Provenance, commit func() error) (Info, error) {
	if name == "" || strings.ContainsAny(name, "@/") {
		// '@' is the ref separator; '/' would break the one-segment
		// /api/models/{name} routes.
		return Info{}, fmt.Errorf("registry: invalid entry name %q (non-empty, no '@' or '/')", name)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	m, err := prov.Params.Model()
	if err != nil {
		return Info{}, fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return Info{}, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if commit != nil {
		if err := commit(); err != nil {
			return Info{}, err
		}
	}
	e := &entry{
		name:     name,
		scenario: sc,
		cfg:      cfg,
		versions: []Version{{Number: 1, Provenance: prov}},
		models:   []*core.Model{m},
		det:      changepoint.New(m, cfg.Detector),
	}
	r.entries[name] = e
	r.order = append(r.order, name)
	return e.info(), nil
}

// Publish appends a new version to an existing entry and resets the
// detector against it. It is the low-level append used for replaying
// persisted versions; refits go through Refit. commit behaves as in
// Create, receiving the version about to be applied.
func (r *Registry) Publish(name string, prov Provenance, commit func(Version) error) (Version, error) {
	m, err := prov.Params.Model()
	if err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return Version{}, fmt.Errorf("%w: no model %q", ErrNotFound, name)
	}
	v := Version{Number: len(e.versions) + 1, Provenance: prov}
	if commit != nil {
		if err := commit(v); err != nil {
			return Version{}, err
		}
	}
	e.publish(v, m)
	return v, nil
}

// publish appends under the registry lock.
func (e *entry) publish(v Version, m *core.Model) {
	e.versions = append(e.versions, v)
	e.models = append(e.models, m)
	e.det.Reset(m)
	e.refitBuf = e.refitBuf[:0]
}

// Get returns one entry's info.
func (r *Registry) Get(name string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: no model %q", ErrNotFound, name)
	}
	return e.info(), nil
}

// List returns every entry in creation order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name].info())
	}
	return out
}

// info snapshots an entry; callers hold the registry lock.
func (e *entry) info() Info {
	st := e.det.State()
	return Info{
		Name:          e.name,
		Scenario:      e.scenario,
		EntryConfig:   e.cfg,
		Versions:      append([]Version(nil), e.versions...),
		Observations:  st.Observations,
		Flagged:       st.Flagged,
		FlaggedAt:     st.FlaggedAt,
		RefitBuffered: len(e.refitBuf),
		Refitting:     e.refitting,
	}
}

// Resolve pins a model reference to a concrete version. "name" and
// "name@latest" resolve to the highest version at call time; "name@vN"
// resolves to exactly vN. The returned Pinned string re-resolves to the
// same version forever (versions are immutable and never deleted), which
// is what session creation stores.
func (r *Registry) Resolve(ref string) (Resolved, error) {
	name, num, err := ParseRef(ref)
	if err != nil {
		return Resolved{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return Resolved{}, fmt.Errorf("%w: no model %q", ErrNotFound, name)
	}
	if num == 0 {
		num = len(e.versions)
	}
	if num > len(e.versions) {
		return Resolved{}, fmt.Errorf("%w: model %q has no version v%d (latest is v%d)",
			ErrNotFound, name, num, len(e.versions))
	}
	return Resolved{
		Name:     name,
		Scenario: e.scenario,
		Version:  e.versions[num-1],
		Pinned:   fmt.Sprintf("%s@v%d", name, num),
	}, nil
}

// Ingest feeds a batch of observed lifetimes into the entry's detector.
// Once the entry is flagged, observations also accumulate in the refit
// buffer (most recent refitBufCap kept); the result reports whether the
// entry is now ready to refit. commit behaves as in Create: it durably
// logs the batch under the registry lock before the detector sees it, so
// replaying the log reproduces the detector state exactly (window
// boundaries and KS tests depend on observation order).
func (r *Registry) Ingest(name string, lifetimes []float64, commit func() error) (IngestResult, error) {
	for _, lt := range lifetimes {
		if lt < 0 {
			return IngestResult{}, fmt.Errorf("registry: negative lifetime %v", lt)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return IngestResult{}, fmt.Errorf("%w: no model %q", ErrNotFound, name)
	}
	if commit != nil {
		if err := commit(); err != nil {
			return IngestResult{}, err
		}
	}
	newly := false
	bufCap := e.refitBufCap()
	for _, lt := range lifetimes {
		if e.det.Observe(lt) {
			newly = true
			r.flags++
		}
		// Post-flag observations feed the refit buffer; the flagging
		// window itself does not (its samples straddle the regimes).
		if e.det.Flagged() && e.det.Observations() > e.det.FlaggedAt() {
			e.refitBuf = append(e.refitBuf, lt)
			if over := len(e.refitBuf) - bufCap; over > 0 {
				e.refitBuf = append(e.refitBuf[:0], e.refitBuf[over:]...)
			}
		}
	}
	return IngestResult{
		Ingested:      len(lifetimes),
		Observations:  e.det.Observations(),
		Flagged:       e.det.Flagged(),
		NewlyFlagged:  newly,
		RefitBuffered: len(e.refitBuf),
		RefitReady:    e.det.Flagged() && len(e.refitBuf) >= e.cfg.MinRefitSamples && !e.refitting,
		AutoRefit:     e.cfg.AutoRefit,
	}, nil
}

// refitFamily picks the family a refit fits: the latest version's family
// if it is fittable, else the paper's bathtub model (versions registered
// from explicit parameters carry family "manual").
func (e *entry) refitFamily() string {
	if f := e.versions[len(e.versions)-1].Family; f != "" && f != "manual" {
		return f
	}
	return "bathtub"
}

// Refit fits a new model to the entry's buffered post-change observations
// and publishes it as the next version. The fit runs outside the registry
// lock (it is the expensive multi-start least-squares of internal/fit);
// concurrent refits on one entry fail with ErrRefitInProgress. Before the
// new version is applied, commit (if non-nil) is called with it under the
// registry lock — the serving layer persists the version there, so the
// durable log and the in-memory registry never diverge (a failed commit
// leaves the registry untouched and the buffer intact).
func (r *Registry) Refit(name, fittedAt, source string, commit func(Version) error) (Version, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return Version{}, fmt.Errorf("%w: no model %q", ErrNotFound, name)
	}
	if e.refitting {
		r.mu.Unlock()
		return Version{}, fmt.Errorf("%w: model %q", ErrRefitInProgress, name)
	}
	st := e.det.State()
	if !st.Flagged {
		r.mu.Unlock()
		return Version{}, fmt.Errorf("%w: model %q has no flagged change point", ErrNotReady, name)
	}
	if n := len(e.refitBuf); n < e.cfg.MinRefitSamples {
		r.mu.Unlock()
		return Version{}, fmt.Errorf("%w: model %q has %d post-flag observations, needs %d",
			ErrNotReady, name, n, e.cfg.MinRefitSamples)
	}
	e.refitting = true
	samples := append([]float64(nil), e.refitBuf...)
	family := e.refitFamily()
	deadline := e.versions[len(e.versions)-1].Params.L
	r.mu.Unlock()

	rep, err := fit.ByFamily(family, samples, deadline)
	var bt dist.Bathtub
	if err == nil {
		var isBathtub bool
		if bt, isBathtub = rep.Dist.(dist.Bathtub); !isBathtub {
			err = fmt.Errorf("registry: family %q does not produce a bathtub model", family)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e.refitting = false
	if err != nil {
		return Version{}, fmt.Errorf("registry: refitting %q: %w", name, err)
	}
	m := core.New(bt)
	v := Version{Number: len(e.versions) + 1, Provenance: Provenance{
		Family:   family,
		Params:   ParamsOf(bt),
		Samples:  len(samples),
		KS:       rep.KS,
		FittedAt: fittedAt,
		Source:   source,
	}}
	if commit != nil {
		if err := commit(v); err != nil {
			return Version{}, err
		}
	}
	e.publish(v, m)
	return v, nil
}

// Stats derives the registry counters from current state (plus the
// monotonic flag counter), so they are deterministic across restarts.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Entries: len(r.entries), ChangePointsFlagged: r.flags}
	for _, e := range r.entries {
		st.VersionsPublished += len(e.versions)
		st.ObservationsIngested += e.det.State().Observations
		if e.det.Flagged() {
			st.FlaggedEntries++
		}
		for _, v := range e.versions {
			if v.Source == "refit" || v.Source == "auto-refit" {
				st.RefitsRun++
			}
		}
	}
	return st
}

// EntryState is the compacted durable form of one entry: everything needed
// to restore it without replaying its observation history.
type EntryState struct {
	Name     string            `json:"name"`
	Scenario Scenario          `json:"scenario"`
	Config   EntryConfig       `json:"config"`
	Versions []Version         `json:"versions"`
	Detector changepoint.State `json:"detector"`
	RefitBuf []float64         `json:"refit_buf,omitempty"`
}

// Snapshot exports every entry in creation order for compaction.
func (r *Registry) Snapshot() []EntryState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EntryState, 0, len(r.order))
	for _, name := range r.order {
		e := r.entries[name]
		out = append(out, EntryState{
			Name:     e.name,
			Scenario: e.scenario,
			Config:   e.cfg,
			Versions: append([]Version(nil), e.versions...),
			Detector: e.det.State(),
			RefitBuf: append([]float64(nil), e.refitBuf...),
		})
	}
	return out
}

// RestoreEntry rebuilds one entry from its compacted state, including the
// detector's high-water mark and partially filled window, and primes the
// monotonic flag counter.
func (r *Registry) RestoreEntry(st EntryState) error {
	if len(st.Versions) == 0 {
		return fmt.Errorf("registry: entry %q state has no versions", st.Name)
	}
	models := make([]*core.Model, len(st.Versions))
	for i, v := range st.Versions {
		m, err := v.Params.Model()
		if err != nil {
			return fmt.Errorf("registry: entry %q version %d: %w", st.Name, v.Number, err)
		}
		models[i] = m
	}
	cfg := st.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("registry: entry %q: %w", st.Name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[st.Name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, st.Name)
	}
	det := changepoint.New(models[len(models)-1], cfg.Detector)
	det.Restore(st.Detector)
	if st.Detector.Flagged {
		r.flags++
	}
	e := &entry{
		name:     st.Name,
		scenario: st.Scenario,
		cfg:      cfg,
		versions: append([]Version(nil), st.Versions...),
		models:   models,
		det:      det,
		refitBuf: append([]float64(nil), st.RefitBuf...),
	}
	r.entries[st.Name] = e
	r.order = append(r.order, st.Name)
	return nil
}
