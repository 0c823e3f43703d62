package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"casyn/internal/runstage"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobError is the structured failure body of a job: the pipeline stage
// and K it died in (when known), with the failure mode flags a client
// routes retries on. A panicked job reports here — the process never
// dies with it.
type JobError struct {
	Stage    string  `json:"stage,omitempty"`
	K        float64 `json:"k,omitempty"`
	Panicked bool    `json:"panicked,omitempty"`
	Timeout  bool    `json:"timeout,omitempty"`
	Canceled bool    `json:"canceled,omitempty"`
	Message  string  `json:"message"`
}

// newJobError condenses a pipeline failure into its structured form.
func newJobError(err error) *JobError {
	je := &JobError{Message: err.Error()}
	if se := runstage.AsStage(err); se != nil {
		je.Stage = string(se.Stage)
		je.K = se.K
		je.Panicked = se.Panicked
		je.Timeout = se.Timeout()
		je.Canceled = se.Canceled()
		return je
	}
	je.Timeout = errors.Is(err, context.DeadlineExceeded)
	je.Canceled = errors.Is(err, context.Canceled)
	return je
}

// IterationSummary is one K rung of a sweep job's result. Overflow is
// the rung's total track overflow, a diagnostic; FailedConnections is
// what the flow accepts rungs by.
type IterationSummary struct {
	K                 float64 `json:"k"`
	NumCells          int     `json:"num_cells,omitempty"`
	CellArea          float64 `json:"cell_area,omitempty"`
	Utilization       float64 `json:"utilization,omitempty"`
	Overflow          int     `json:"overflow"`
	FailedConnections int     `json:"failed_connections"`
	WireLength        float64 `json:"wire_length,omitempty"`
	Routable          bool    `json:"routable"`
	Skipped           bool    `json:"skipped,omitempty"`
	Err               string  `json:"error,omitempty"`
}

// JobResult is the JSON body of a completed job. Scalar fields mirror
// casyn.Result; Report is the paper-style text the one-shot CLI
// prints, byte-identical for the same spec.
type JobResult struct {
	BaseGates      int     `json:"base_gates"`
	NumCells       int     `json:"num_cells"`
	CellArea       float64 `json:"cell_area"`
	Utilization    float64 `json:"utilization"`
	Violations     int     `json:"violations"`
	Routable       bool    `json:"routable"`
	WireLength     float64 `json:"wire_length"`
	CriticalPathNs float64 `json:"critical_path_ns,omitempty"`
	CriticalPath   string  `json:"critical_path,omitempty"`
	Verified       bool    `json:"verified,omitempty"`
	// Dies, ReplicatedGates, and CrossRegionNets describe a multi-die
	// job ("dies" > 1 in the spec): the region count, the cut drivers
	// cloned across the partition boundary, and the routed nets that
	// cross a region boundary (all zero for single-die jobs).
	Dies            int    `json:"dies,omitempty"`
	ReplicatedGates int    `json:"replicated_gates,omitempty"`
	CrossRegionNets int    `json:"cross_region_nets,omitempty"`
	Report          string `json:"report"`
	// Verilog is the mapped netlist (populated in responses only when
	// the spec asked for it; always carried internally so the result
	// cache can serve either shape).
	Verilog string `json:"verilog,omitempty"`
	// Iterations and BestK describe a sweep job (empty for single-K).
	// An adaptive job ("k_mode":"adaptive") also fills Iterations — one
	// row per routed iteration of the closed loop, K fixed at the
	// baseline — plus AdaptiveIterations.
	Iterations []IterationSummary `json:"iterations,omitempty"`
	BestK      *float64           `json:"best_k,omitempty"`
	// AdaptiveIterations counts the closed loop's routed iterations
	// (zero for fixed-K jobs).
	AdaptiveIterations int `json:"adaptive_iterations,omitempty"`
	// StageWallMS is the measured per-stage wall clock of the run that
	// produced this result (empty on a result-cache hit).
	StageWallMS map[string]float64 `json:"stage_wall_ms,omitempty"`
	// Cache reports how the job was served: "cold" (full compute),
	// "prepared" (shared mapping prefix reused), or "result" (exact
	// repeat, no compute).
	Cache string `json:"cache,omitempty"`
	// ECO describes an incremental job (POST /jobs/{id}/eco); nil for
	// ordinary submissions.
	ECO *ECOInfo `json:"eco,omitempty"`
	// Retries counts transient-failure retries the job survived.
	Retries int `json:"retries,omitempty"`
}

// clone returns a shallow copy whose mutable annotations (Cache,
// Retries, StageWallMS) can be rewritten without touching the cached
// original.
func (r *JobResult) clone() *JobResult {
	cp := *r
	return &cp
}

// Job is one tracked submission.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"-"`
	// prepKey and resultKey are the spec's cache keys, computed once at
	// Submit (hashing an inline PLA is not free) and reused on every
	// attempt by runJob/prepared.
	prepKey   string
	resultKey string
	// eco marks an incremental ECO job (POST /jobs/{id}/eco): the edit
	// set to apply against the parent job's synthesis lineage. Nil for
	// ordinary submissions.
	eco *ecoJob

	mu       sync.Mutex
	status   Status
	result   *JobResult
	jerr     *JobError
	retries  int
	cancel   context.CancelFunc
	submitAt time.Time
	startAt  time.Time
	finishAt time.Time

	// done closes exactly once when the job reaches a terminal state.
	done chan struct{}
}

func newJob(id string, spec JobSpec, prepKey, resultKey string) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		prepKey:   prepKey,
		resultKey: resultKey,
		status:    StatusQueued,
		submitAt:  time.Now(),
		done:      make(chan struct{}),
	}
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the terminal outcome (result or structured error);
// both are nil while the job is still queued or running.
func (j *Job) Result() (*JobResult, *JobError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.jerr
}

// start transitions queued → running, returning false when the job was
// canceled while waiting in the queue (the worker must skip it).
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.cancel = cancel
	j.startAt = time.Now()
	return true
}

// finish records the terminal state exactly once.
func (j *Job) finish(status Status, res *JobResult, jerr *JobError, retries int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.result = res
	j.jerr = jerr
	j.retries = retries
	j.finishAt = time.Now()
	j.cancel = nil
	close(j.done)
}

// Cancel requests cancellation: a queued job terminates immediately
// (the worker will skip it); a running job's context is canceled and
// the pipeline stops cooperatively. Terminal jobs are unaffected.
// It reports whether the call changed anything.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCanceled
		j.jerr = &JobError{Canceled: true, Message: "canceled while queued"}
		j.finishAt = time.Now()
		close(j.done)
		j.mu.Unlock()
		return true
	}
	if j.status == StatusRunning && j.cancel != nil {
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return true
	}
	j.mu.Unlock()
	return false
}
