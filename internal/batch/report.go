package batch

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Report summarizes one service run: the measurements behind Figures 9a/9b.
// The JSON keys match the HTTP report endpoint's wire format.
type Report struct {
	JobsCompleted int     `json:"jobs_completed"`
	JobFailures   int     `json:"job_failures"` // preemption-induced job failures (attempts - completions)
	Preemptions   int     `json:"preemptions"`  // VM preemptions observed
	TotalCost     float64 `json:"total_cost_usd"`
	CostPerJob    float64 `json:"cost_per_job"`
	Makespan      float64 `json:"makespan_hours"` // submission to last completion
	// IdealMakespan is the zero-preemption, zero-overhead lower bound:
	// total work divided by the number of gangs.
	IdealMakespan float64 `json:"ideal_makespan"`
	// IncreasePct is 100*(Makespan-IdealMakespan)/IdealMakespan.
	IncreasePct float64 `json:"increase_pct"`
	// MeanAttempts is the average number of attempts per job.
	MeanAttempts float64 `json:"mean_attempts"`
	// TraceID links the report back to the request trace that created its
	// session (GET /api/trace/{id}), when the session arrived through the
	// traced HTTP edge. The serving layer sets it whenever a run settles,
	// a restored session's replayed run included, so the trace survives
	// restarts.
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Service) report() Report {
	r := Report{
		Preemptions: s.Provider.Preemptions(),
		TotalCost:   s.Provider.TotalCost(),
		Makespan:    s.finishedAt - s.startedAt,
	}
	var work float64
	var attempts int
	for _, id := range s.jobOrder {
		js := s.jobs[id]
		if js.done {
			r.JobsCompleted++
		}
		r.JobFailures += js.failures
		work += js.spec.Runtime
		attempts += js.attempts
	}
	if r.JobsCompleted > 0 {
		r.CostPerJob = r.TotalCost / float64(r.JobsCompleted)
		r.MeanAttempts = float64(attempts) / float64(r.JobsCompleted)
	}
	r.IdealMakespan = work / float64(s.cfg.Gangs)
	if r.IdealMakespan > 0 {
		r.IncreasePct = 100 * (r.Makespan - r.IdealMakespan) / r.IdealMakespan
	}
	return r
}

func (r Report) String() string {
	return fmt.Sprintf(
		"report{jobs=%d failures=%d preemptions=%d cost=$%.2f ($%.4f/job) makespan=%.2fh (+%.1f%% over ideal %.2fh)}",
		r.JobsCompleted, r.JobFailures, r.Preemptions, r.TotalCost, r.CostPerJob,
		r.Makespan, r.IncreasePct, r.IdealMakespan)
}

// Jobs returns per-job status for the API.
type JobStatus struct {
	ID        string  `json:"id"`
	App       string  `json:"app"`
	Runtime   float64 `json:"runtime_hours"`
	Remaining float64 `json:"remaining_hours"`
	Attempts  int     `json:"attempts"`
	Failures  int     `json:"failures"`
	Done      bool    `json:"done"`
	DoneAt    float64 `json:"done_at_hours,omitempty"`
}

// JobStatuses returns the status of every job in submission order.
func (s *Service) JobStatuses() []JobStatus {
	out := make([]JobStatus, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		js := s.jobs[id]
		out = append(out, JobStatus{
			ID:        js.spec.ID,
			App:       js.spec.App,
			Runtime:   js.spec.Runtime,
			Remaining: js.remaining,
			Attempts:  js.attempts,
			Failures:  js.failures,
			Done:      js.done,
			DoneAt:    js.doneAt,
		})
	}
	return out
}

// RemainingJobs returns the number of unfinished jobs.
func (s *Service) RemainingJobs() int { return s.remaining }

// ActiveGangs returns the number of live gangs.
func (s *Service) ActiveGangs() int { return len(s.gangs) }

// Estimate is an a-priori prediction for a bag, computed from the model
// before anything runs ("users and transient computing systems can use the
// expected running time analysis for scheduling and monitoring purposes",
// Section 4.1).
type Estimate struct {
	// IdealMakespan is total work / gangs with no failures or overheads.
	IdealMakespan float64
	// ExpectedMakespan scales the ideal by the per-job expected slowdown
	// under multi-failure restart semantics on a fresh VM.
	ExpectedMakespan float64
	// PerJobFailureProb is the fresh-VM failure probability of the bag's
	// mean-length job.
	PerJobFailureProb float64
	// ExpectedCost prices ExpectedMakespan across the cluster.
	ExpectedCost float64
}

// Estimate predicts the bag's makespan and cost under this service's
// configuration without running it.
func (s *Service) Estimate(bag workload.Bag) (Estimate, error) {
	cfg := s.cfg
	if cfg.Model == nil && cfg.Models != nil {
		// Use the day model for a-priori quotes when only a registry is
		// configured.
		if m, ok := cfg.Models.Get(ModelKey(cfg.VMType, cfg.Zone, trace.Day)); ok {
			cfg.Model = m
		}
	}
	return EstimateBag(cfg, bag)
}

// EstimateBag predicts a bag's makespan and cost for the given
// configuration without running it. It returns an error when the config
// carries no model or the bag is empty.
func EstimateBag(cfg Config, bag workload.Bag) (Estimate, error) {
	if cfg.Model == nil {
		return Estimate{}, fmt.Errorf("batch: estimation requires a model")
	}
	if len(bag.Jobs) == 0 {
		return Estimate{}, fmt.Errorf("batch: empty bag")
	}
	if cfg.Gangs <= 0 || cfg.GangSize <= 0 {
		return Estimate{}, fmt.Errorf("batch: invalid cluster shape")
	}
	mean := bag.MeanRuntime()
	slowdown := 1.0
	if cfg.Preemptible {
		em := cfg.Model.ExpectedMakespanMultiFailure(mean)
		if math.IsInf(em, 1) {
			return Estimate{}, fmt.Errorf("batch: job length %vh cannot complete before the deadline", mean)
		}
		slowdown = em / mean
	}
	e := Estimate{
		IdealMakespan: bag.TotalWork() / float64(cfg.Gangs),
	}
	e.ExpectedMakespan = e.IdealMakespan * slowdown
	if cfg.Preemptible {
		e.PerJobFailureProb = cfg.Model.ConditionalFailure(0, mean)
	}
	it, err := cloud.Lookup(cfg.VMType)
	if err != nil {
		return Estimate{}, err
	}
	rate := it.OnDemandPerHour
	if cfg.Preemptible {
		rate = it.PreemptiblePerHour
	}
	e.ExpectedCost = rate * float64(cfg.Gangs*cfg.GangSize) * e.ExpectedMakespan
	return e, nil
}
