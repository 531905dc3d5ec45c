package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/changepoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/registry"
	"repro/internal/trace"
)

// This file wires the online model registry (internal/registry) into the
// service: HTTP endpoints for registering models, ingesting observed
// lifetimes, and refitting; durable logging of every registry mutation;
// and the background auto-refit worker that turns a flagged change point
// into a freshly published version.

// ModelCreateRequest is the POST /api/models body: a named model for one
// (vm type, zone) scenario, seeded either from explicit bathtub parameters
// or from a fit recipe (fitting synthetic study data, as sessions do).
type ModelCreateRequest struct {
	Name   string `json:"name"`
	VMType string `json:"vm_type"`
	Zone   string `json:"zone"`
	// Model supplies version 1's bathtub parameters inline; Fit asks the
	// service to fit them from study data. Exactly one is required.
	Model *ModelParams `json:"model,omitempty"`
	Fit   *FitSpec     `json:"fit,omitempty"`
	// Detector overrides the change-point detector tuning (zero fields
	// keep the changepoint.DefaultConfig values).
	Detector *changepoint.Config `json:"detector,omitempty"`
	// AutoRefit publishes a new version in the background as soon as a
	// flagged change point has MinRefitSamples post-flag observations.
	AutoRefit bool `json:"auto_refit,omitempty"`
	// MinRefitSamples gates refits (default registry.DefaultMinRefitSamples).
	MinRefitSamples int `json:"min_refit_samples,omitempty"`
}

// ObservationsRequest is the POST /api/models/{name}/observations body: a
// batch of observed VM lifetimes in hours.
type ObservationsRequest struct {
	Lifetimes []float64 `json:"lifetimes"`
}

// regErr maps the registry's sentinel errors onto HTTP statuses.
func regErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, registry.ErrNotFound):
		return &apiError{code: http.StatusNotFound, err: err}
	case errors.Is(err, registry.ErrExists),
		errors.Is(err, registry.ErrRefitInProgress),
		errors.Is(err, registry.ErrNotReady):
		return &apiError{code: http.StatusConflict, err: err}
	}
	return err
}

// requestTimestamp is the request-clock timestamp stamped into version
// provenance; it is persisted with the version, so replays keep the
// original fit times.
func requestTimestamp() string {
	return time.Now().UTC().Format(time.RFC3339)
}

// RegisterModel validates the request, produces version 1 (fitting the
// recipe if asked), durably logs the creation, and registers the entry. A
// shard process refuses: references are resolved on the control plane's
// registry, so an entry written here could never be used.
func (m *Manager) RegisterModel(req ModelCreateRequest) (registry.Info, error) {
	if m.executor {
		return registry.Info{}, errf(http.StatusConflict,
			"shard %d takes models resolved on the control plane's registry; register %q there", m.shard, req.Name)
	}
	if req.Name == "" {
		return registry.Info{}, errf(http.StatusBadRequest, "model name is required")
	}
	if err := validateScenario(req.VMType, req.Zone); err != nil {
		return registry.Info{}, err
	}
	if (req.Model == nil) == (req.Fit == nil) {
		return registry.Info{}, errf(http.StatusBadRequest,
			"exactly one of \"model\" (explicit parameters) or \"fit\" (a recipe) is required")
	}
	cfg := registry.EntryConfig{AutoRefit: req.AutoRefit, MinRefitSamples: req.MinRefitSamples}
	if req.Detector != nil {
		cfg.Detector = *req.Detector
	}
	var prov registry.Provenance
	switch {
	case req.Model != nil:
		p := *req.Model
		if _, err := p.Model(); err != nil {
			return registry.Info{}, errf(http.StatusBadRequest, "model: %v", err)
		}
		prov = registry.Provenance{
			Family: "manual", Params: p,
			FittedAt: requestTimestamp(), Source: "register",
		}
	default:
		fs := *req.Fit
		if fs.Samples == 0 {
			fs.Samples = 2000
		}
		if fs.Samples < 50 {
			return registry.Info{}, errf(http.StatusBadRequest, "fit.samples must be at least 50 (got %d)", fs.Samples)
		}
		sc := trace.Scenario{
			Type: trace.VMType(req.VMType), Zone: trace.Zone(req.Zone),
			TimeOfDay: trace.Day, Workload: trace.Busy,
		}
		_, rep, err := core.Fit(trace.Generate(sc, fs.Samples, fs.Seed), trace.Deadline)
		if err != nil {
			return registry.Info{}, errf(http.StatusBadRequest, "fitting recipe: %v", err)
		}
		prov = registry.Provenance{
			Family: rep.Family, Params: registry.ParamsOf(rep.Dist.(dist.Bathtub)),
			Samples: fs.Samples, KS: rep.KS,
			FittedAt: requestTimestamp(), Source: "recipe",
		}
	}
	scenario := registry.Scenario{VMType: req.VMType, Zone: req.Zone}
	defer m.rlockPersistGate()()
	info, err := m.registry.Create(req.Name, scenario, cfg, prov, func() error {
		return m.persistModel(kindModelCreate, req.Name, modelCreateRecord{
			Scenario: scenario, Config: cfg, Version: prov,
		})
	})
	if err != nil {
		return registry.Info{}, regErr(err)
	}
	return info, nil
}

// ModelInfo returns one registry entry.
func (m *Manager) ModelInfo(name string) (registry.Info, error) {
	info, err := m.registry.Get(name)
	return info, regErr(err)
}

// Models lists the registry entries in creation order.
func (m *Manager) Models() []registry.Info { return m.registry.List() }

// ModelStats returns the registry counters for /api/stats.
func (m *Manager) ModelStats() registry.Stats { return m.registry.Stats() }

// IngestObservations durably logs and ingests one batch of observed
// lifetimes, then (in auto-refit mode) launches a background refit when
// the batch made the entry refit-ready.
func (m *Manager) IngestObservations(name string, lifetimes []float64) (registry.IngestResult, error) {
	if len(lifetimes) == 0 {
		return registry.IngestResult{}, errf(http.StatusBadRequest, "lifetimes must be non-empty")
	}
	res, err := func() (registry.IngestResult, error) {
		defer m.rlockPersistGate()()
		return m.registry.Ingest(name, lifetimes, func() error {
			return m.persistModel(kindModelObs, name, modelObsRecord{Lifetimes: lifetimes})
		})
	}()
	if err != nil {
		return registry.IngestResult{}, regErr(err)
	}
	if res.RefitReady && res.AutoRefit {
		m.startAutoRefit(name)
	}
	return res, nil
}

// RefitModel refits the named entry from its buffered post-change
// observations and publishes the result as the next version, durably
// logging it before the registry applies it. source is "refit" for
// client-triggered refits and "auto-refit" for the background worker.
func (m *Manager) RefitModel(name, source string) (registry.Version, error) {
	defer m.rlockPersistGate()()
	v, err := m.registry.Refit(name, requestTimestamp(), source, func(v registry.Version) error {
		return m.persistModel(kindModelVersion, name, v)
	})
	if err != nil {
		return registry.Version{}, regErr(err)
	}
	return v, nil
}

// startAutoRefit launches at most one background refit per entry. The
// goroutine is tracked by the manager's WaitGroup, so graceful shutdown
// drains in-flight refits like it drains session runs.
func (m *Manager) startAutoRefit(name string) {
	m.mu.Lock()
	if m.refitInFlight[name] {
		m.mu.Unlock()
		return
	}
	m.refitInFlight[name] = true
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		// The in-flight marker clears even if the refit panics, so the
		// entry is not wedged out of future refits.
		defer func() {
			m.mu.Lock()
			delete(m.refitInFlight, name)
			m.mu.Unlock()
		}()
		err := func() (err error) {
			// A panicking refit must not take the process down with it: it
			// becomes a logged failure with the stack as the diagnostic.
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
				}
			}()
			if m.refitHook != nil {
				return m.refitHook(name)
			}
			_, err = m.RefitModel(name, "auto-refit")
			return err
		}()
		// Losing to a concurrent manual refit (or its detector reset) is
		// a benign race, not an operator-visible failure.
		if err != nil && !errors.Is(err, registry.ErrRefitInProgress) && !errors.Is(err, registry.ErrNotReady) {
			m.slogger().Error("auto-refit failed", "model", name, "err", err)
		}
	}()
}

func (a *API) handleModelCreate(w http.ResponseWriter, r *http.Request) {
	var req ModelCreateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, err := a.b.RegisterModel(req)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (a *API) handleModelList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.b.Models())
}

func (a *API) handleModelGet(w http.ResponseWriter, r *http.Request) {
	info, err := a.b.ModelInfo(r.PathValue("name"))
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (a *API) handleModelObservations(w http.ResponseWriter, r *http.Request) {
	var req ObservationsRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := a.b.IngestObservations(r.PathValue("name"), req.Lifetimes)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, res)
}

func (a *API) handleModelRefit(w http.ResponseWriter, r *http.Request) {
	v, err := a.b.RefitModel(r.PathValue("name"), "refit")
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, v)
}
