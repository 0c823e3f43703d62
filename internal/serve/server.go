// Package serve is the synthesis-as-a-service layer: a fault-tolerant
// daemon wrapping the flow engine behind an HTTP/JSON API with a
// bounded job queue, admission control, per-job deadlines and
// cancellation, per-job panic isolation, cross-request caching of the
// expensive K-invariant mapping prefix, and graceful drain.
//
// # Failure model
//
// The daemon assumes any job can fail in any way the pipeline allows —
// errors, panics, blown budgets, cancellations — and guarantees that
// no job failure terminates the process or corrupts another job. Every
// pipeline stage already runs under runstage.Run (panic recovery,
// budgets); the serve layer adds a recover around the whole job (glue
// code included), bounded retry with backoff for transient failures,
// and structured JobError bodies so clients can route on the failure
// mode. Admission is honest: when the bounded queue is full the server
// says 429 with a Retry-After derived from measured job cost and queue
// depth rather than letting latency grow without bound.
//
// # Caching
//
// Two LRU caches exploit the iterative multi-user workload (see
// "Physically Aware Synthesis Revisited": near-identical requests
// differing only in K or placement): a prepared-prefix cache keyed by
// PrepKey shares the partition + match-enumeration work across K
// variations of one circuit, and a result cache keyed by ResultKey
// serves exact repeats without compute — sound because the whole flow
// is deterministic.
package serve

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"casyn"
	"casyn/internal/flow"
	"casyn/internal/obs"
	"casyn/internal/place"
	"casyn/internal/runstage"
	"casyn/internal/subject"
)

// StageFrontend tags failures of the serve-side front end (PLA
// parsing, benchmark generation, subject decomposition) — work that
// happens before flow.Prepare and therefore outside the flow's own
// stages.
const StageFrontend = runstage.Stage("frontend")

// StageServe tags failures of the daemon glue itself (a panic outside
// any runstage-managed stage).
const StageServe = runstage.Stage("serve")

// Config parameterizes the daemon.
type Config struct {
	// QueueCap bounds the job queue; submissions beyond it are rejected
	// with ErrQueueFull (HTTP 429). Default 64.
	QueueCap int
	// Workers is the number of concurrent job executors. Default 2.
	Workers int
	// JobWorkers is the default per-job pipeline fan-out (covering and
	// routing goroutines); a spec's workers field overrides it per job.
	// Default 1 — a multi-tenant daemon gets its parallelism across
	// jobs, not inside them.
	JobWorkers int
	// JobTimeout bounds each job's wall clock (0 = none); a spec's
	// timeout_ms overrides it per job. StageTimeout likewise bounds
	// individual pipeline stages.
	JobTimeout   time.Duration
	StageTimeout time.Duration
	// DrainTimeout bounds Drain when its context has no deadline.
	// Default 30s.
	DrainTimeout time.Duration
	// Retries is how many times a transiently-failed job is retried
	// (with exponential backoff starting at RetryBackoff, default
	// 50ms). Cancellations and job-deadline expiries are never
	// retried. Default 0 — opt in.
	Retries      int
	RetryBackoff time.Duration
	// PreparedCacheSize and ResultCacheSize bound the two LRUs in
	// entries; negative disables a cache. Defaults 32 and 256.
	PreparedCacheSize int
	ResultCacheSize   int
	// MaxJobs bounds the in-memory job table; beyond it the oldest
	// *terminal* jobs are forgotten (their results become 404). Jobs
	// that are queued or running are never evicted. Default 4096.
	MaxJobs int
	// Hooks injects faults into every job's pipeline (chaos testing).
	Hooks *runstage.Hooks
	// MetricsSink, when non-nil, receives the final JSONL metrics
	// snapshot exactly once, at drain/close.
	MetricsSink io.Writer
}

func (c *Config) defaults() {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 1
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.PreparedCacheSize == 0 {
		c.PreparedCacheSize = 32
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 256
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
}

// ErrQueueFull rejects a submission when the bounded queue is at
// capacity; RetryAfter estimates when capacity should free up.
type ErrQueueFull struct {
	RetryAfter time.Duration
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("job queue full; retry after %s", e.RetryAfter)
}

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = fmt.Errorf("server is draining; not admitting jobs")

// prepEntry is one prepared-prefix cache entry: the decomposed subject
// DAG, its floorplan, and the flow context carrying the placed
// technology-independent netlist plus the shared mapper.Prepared. All
// of it is immutable after construction and shared read-only across
// concurrent jobs.
type prepEntry struct {
	dag    *subject.DAG
	layout place.Layout
	pc     *flow.Context
}

// Server is the synthesis daemon. Create with New, serve its Handler,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg Config
	rec *obs.Recorder

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for terminal-job eviction
	nextID   int64
	draining bool

	prepCache *lru[*prepEntry]
	resCache  *lru[*JobResult]
	// ecoCache holds per-(prefix, K, k_mode) baseline synthesis states
	// for the incremental ECO path: the mapping/covering/routing residue
	// an edit set is diffed against. Keyed by ecoKey, so every ECO
	// against the same parent lineage reuses one baseline; an adaptive
	// parent stores its accepted state there itself.
	ecoCache *lru[*flow.ECOState]

	// ewmaNs tracks the exponentially-weighted moving average of job
	// wall time, the basis of the Retry-After estimate.
	ewmaNs atomic.Int64

	flushOnce sync.Once
	flushErr  error
}

// New builds the daemon and starts its worker pool.
func New(cfg Config) *Server {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		rec:        obs.New(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueCap),
		jobs:       make(map[string]*Job),
		prepCache:  newLRU[*prepEntry](cfg.PreparedCacheSize),
		resCache:   newLRU[*JobResult](cfg.ResultCacheSize),
		ecoCache:   newLRU[*flow.ECOState](cfg.PreparedCacheSize),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics snapshots the server's observability state with the
// instantaneous gauges (queue depth, running jobs, cache occupancy)
// refreshed.
func (s *Server) Metrics() obs.Snapshot {
	s.rec.SetGauge("serve.queue_depth", int64(len(s.queue)))
	s.rec.SetGauge("serve.queue_capacity", int64(s.cfg.QueueCap))
	s.rec.SetGauge("serve.jobs_running", s.runningCount())
	s.rec.SetGauge("serve.cache.prepared_entries", int64(s.prepCache.len()))
	s.rec.SetGauge("serve.cache.result_entries", int64(s.resCache.len()))
	s.rec.SetGauge("serve.cache.eco_entries", int64(s.ecoCache.len()))
	return s.rec.Snapshot()
}

func (s *Server) runningCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, j := range s.jobs {
		if j.Status() == StatusRunning {
			n++
		}
	}
	return n
}

// Job looks up a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates and admits a job. It returns ErrDraining during
// shutdown, *ErrQueueFull when the bounded queue is at capacity, and a
// validation error for an unacceptable spec; otherwise the job is
// queued and its ID final.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, err
	}
	prepKey, err := spec.PrepKey()
	if err != nil {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, err
	}
	resultKey, err := spec.ResultKey()
	if err != nil {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, err
	}

	return s.admit(spec, prepKey, resultKey, nil)
}

// admit is the shared admission tail of Submit and SubmitECO: drain
// check, bounded-queue enqueue, job-table insert.
func (s *Server) admit(spec JobSpec, prepKey, resultKey string, eco *ecoJob) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rec.Add("serve.jobs_rejected_draining", 1)
		return nil, ErrDraining
	}
	s.nextID++
	job := newJob(fmt.Sprintf("j%06d", s.nextID), spec, prepKey, resultKey)
	job.eco = eco
	select {
	case s.queue <- job:
	default:
		s.nextID-- // the ID was never visible
		s.mu.Unlock()
		s.rec.Add("serve.jobs_rejected_full", 1)
		return nil, &ErrQueueFull{RetryAfter: s.retryAfter()}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictTerminalLocked()
	s.mu.Unlock()
	s.rec.Add("serve.jobs_submitted", 1)
	return job, nil
}

// evictTerminalLocked forgets the oldest terminal jobs beyond MaxJobs.
// Queued and running jobs are never evicted — an admitted job's result
// is retrievable until retention pressure from *newer completed* work
// pushes it out.
func (s *Server) evictTerminalLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.Status().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// retryAfter estimates when queue capacity frees up: the measured
// per-job cost (EWMA of completed job wall time, falling back to the
// configured budgets when nothing has completed yet) times the queue
// depth, divided across the worker pool.
func (s *Server) retryAfter() time.Duration {
	est := time.Duration(s.ewmaNs.Load())
	if est == 0 {
		// No history yet: the runstage budget machinery is the bound we
		// actually enforce, so it is the honest estimate.
		switch {
		case s.cfg.JobTimeout > 0:
			est = s.cfg.JobTimeout
		case s.cfg.StageTimeout > 0:
			est = 6 * s.cfg.StageTimeout // the pipeline has six stages
		default:
			est = time.Second
		}
	}
	depth := len(s.queue)
	d := est * time.Duration(depth+1) / time.Duration(s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > time.Hour {
		d = time.Hour
	}
	return d
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(job)
	}
}

// observeCompletion updates the EWMA after a job ran for d.
func (s *Server) observeCompletion(d time.Duration) {
	const alpha = 0.3
	for {
		old := s.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64(float64(old)*(1-alpha) + float64(d)*alpha)
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// execute runs one job to a terminal state, with retry for transient
// failures and a final recover so that nothing a job does can take the
// worker (or the process) down.
func (s *Server) execute(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !job.start(cancel) {
		// Canceled while queued; nothing ran.
		s.rec.Add("serve.jobs_canceled", 1)
		return
	}
	timeout := s.cfg.JobTimeout
	if job.Spec.TimeoutMS > 0 {
		timeout = time.Duration(job.Spec.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}

	rec := obs.New() // per-job event stream, folded into s.rec at the end
	jctx := obs.WithRecorder(ctx, rec)

	start := time.Now()
	var res *JobResult
	var err error
	retries := 0
	for attempt := 0; ; attempt++ {
		res, err = s.runJobIsolated(jctx, job)
		if err == nil || attempt >= s.cfg.Retries || !retryable(ctx, err) {
			break
		}
		retries++
		s.rec.Add("serve.jobs_retried", 1)
		backoff := s.cfg.RetryBackoff << attempt
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			err = &runstage.StageError{Stage: StageServe, Err: ctx.Err()}
		case <-t.C:
			continue
		}
		break
	}
	wall := time.Since(start)

	status := StatusDone
	var jerr *JobError
	switch {
	case err == nil:
		res.Retries = retries
		s.rec.Add("serve.jobs_completed", 1)
	case isCanceled(ctx, err):
		status, jerr = StatusCanceled, newJobError(err)
		s.rec.Add("serve.jobs_canceled", 1)
	default:
		status, jerr = StatusFailed, newJobError(err)
		s.rec.Add("serve.jobs_failed", 1)
	}

	s.foldJobMetrics(rec, res, wall)
	// Result-cache hits cost microseconds; folding them into the EWMA
	// would collapse the Retry-After estimate under a warm-cache
	// workload even when cold jobs take minutes. Only jobs that
	// actually computed (including failures) inform admission.
	if res == nil || res.Cache != "result" {
		s.observeCompletion(wall)
	}
	// Publish last: a waiter woken by the job's done channel must find
	// its counters and metrics already folded into /metrics.
	job.finish(status, res, jerr, retries)
}

// retryable decides whether a failure is worth another attempt: the
// job's own deadline/cancellation is final, as is an invalid spec; a
// stage error (including an injected transient fault or a stage-budget
// timeout) is transient as long as the job context is still live.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return runstage.AsStage(err) != nil
}

// isCanceled distinguishes "the job was canceled or ran out of its
// deadline" from "the pipeline failed".
func isCanceled(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return true
	}
	if se := runstage.AsStage(err); se != nil {
		return se.Canceled()
	}
	return false
}

// stageWallBoundsMS buckets per-stage and per-job wall latencies.
var stageWallBoundsMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// foldJobMetrics merges a job's event stream into the server recorder.
// Counters and histograms fold losslessly; the raw span stream is
// deliberately dropped (a long-running daemon cannot accumulate
// unbounded span lists) — instead each stage.* span lands in a
// per-stage latency histogram, which is what /metrics exports.
func (s *Server) foldJobMetrics(rec *obs.Recorder, res *JobResult, wall time.Duration) {
	snap := rec.Snapshot()
	s.rec.Merge(obs.Snapshot{Counters: snap.Counters, Histograms: snap.Histograms})
	for _, sp := range snap.Spans {
		if stage, ok := runstage.StageOf(sp.Name); ok {
			s.rec.Observe("serve.stage_ms."+string(stage), stageWallBoundsMS,
				float64(sp.Wall)/float64(time.Millisecond))
		}
	}
	s.rec.Observe("serve.job_ms", stageWallBoundsMS, float64(wall)/float64(time.Millisecond))
	if res != nil && res.Cache != "" {
		s.rec.Add("serve.jobs_cache_"+res.Cache, 1)
	}
}

// runJobIsolated is runJob behind a recover: a panic anywhere in the
// serve glue (outside the runstage-guarded stages) still comes back as
// a structured StageError instead of unwinding the worker goroutine —
// which would kill the whole process.
func (s *Server) runJobIsolated(ctx context.Context, job *Job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &runstage.StageError{
				Stage:      StageServe,
				Err:        fmt.Errorf("panic: %v", r),
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
		}
	}()
	return s.runJob(ctx, job)
}

// runJob executes one job: result cache, prepared-prefix cache, then
// the flow (runJobECO for an ECO job). Cache keys were computed once
// at Submit (hashing an inline PLA is not free) and ride on the job.
func (s *Server) runJob(ctx context.Context, job *Job) (*JobResult, error) {
	if res, ok := s.cachedResult(job); ok {
		return res, nil
	}
	if job.eco != nil {
		return s.runJobECO(ctx, job)
	}
	spec := &job.Spec
	entry, cacheTag, err := s.prepared(ctx, spec, job.prepKey)
	if err != nil {
		return nil, err
	}

	cfg := s.flowConfig(spec, entry.layout)
	var res *JobResult
	switch {
	case spec.adaptive():
		res, err = s.runAdaptive(ctx, entry, cfg, spec, job.prepKey)
	case len(spec.KSchedule) > 0:
		res, err = s.runSweep(ctx, entry, cfg, spec)
	default:
		res, err = s.runSingle(ctx, entry, cfg, spec.K)
	}
	if err != nil {
		return nil, err
	}
	res.Cache = cacheTag
	// Cache a private copy: execute annotates the returned result
	// (Retries) after it is published here, and concurrent cache
	// readers clone whatever pointer the LRU holds — sharing one
	// struct would be a write/read race under -race and in fact.
	s.resCache.add(job.resultKey, res.clone())
	return res, nil
}

// cachedResult serves an exact repeat of job from the result cache,
// unless the spec opts out: a private copy tagged "result", without
// stage timings (this request did not run those stages).
func (s *Server) cachedResult(job *Job) (*JobResult, bool) {
	if job.Spec.NoResultCache {
		return nil, false
	}
	cached, ok := s.resCache.get(job.resultKey)
	if !ok {
		s.rec.Add("serve.cache.result_misses", 1)
		return nil, false
	}
	s.rec.Add("serve.cache.result_hits", 1)
	res := cached.clone()
	res.Cache = "result"
	res.StageWallMS = nil
	if job.eco != nil {
		// An equivalent parent's ECO shares the key; name this job's
		// parent, not the one the cached result was computed against.
		eco := *res.ECO
		eco.Parent = job.eco.parent
		res.ECO = &eco
	}
	return res, true
}

// prepared returns the job's K-invariant prefix — from cache when a
// near-repeat job already built it, otherwise computed and cached. The
// front end (PLA parse / benchmark generation / decomposition) runs
// under StageFrontend so its panics and budget blowups are isolated
// like any pipeline stage.
func (s *Server) prepared(ctx context.Context, spec *JobSpec, prepKey string) (*prepEntry, string, error) {
	if entry, ok := s.prepCache.get(prepKey); ok {
		s.rec.Add("serve.cache.prepared_hits", 1)
		return entry, "prepared", nil
	}
	s.rec.Add("serve.cache.prepared_misses", 1)

	opts := s.options(spec)
	dag, err := runstage.Run(ctx, StageFrontend, 0, opts.StageTimeout, s.cfg.Hooks,
		func(ctx context.Context) (*subject.DAG, error) {
			p, err := spec.subjectPLA()
			if err != nil {
				return nil, err
			}
			return casyn.SubjectFor(ctx, p, opts)
		})
	if err != nil {
		return nil, "", err
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		return nil, "", &runstage.StageError{Stage: StageFrontend, Err: err}
	}
	cfg := s.flowConfig(spec, layout)
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		return nil, "", err
	}
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		return nil, "", err
	}
	entry := &prepEntry{dag: dag, layout: layout, pc: pc}
	s.prepCache.add(prepKey, entry)
	return entry, "cold", nil
}

// options maps the spec onto casyn.Options, filling the server's
// per-job worker count and stage budget where the spec leaves them
// unset.
func (s *Server) options(spec *JobSpec) casyn.Options {
	opts := spec.options()
	if opts.Workers == 0 {
		opts.Workers = s.cfg.JobWorkers
	}
	if opts.StageTimeout == 0 {
		opts.StageTimeout = s.cfg.StageTimeout
	}
	return opts
}

// flowConfig is the calibrated flow configuration of a job on layout,
// with the server's fault hooks attached.
func (s *Server) flowConfig(spec *JobSpec, layout place.Layout) flow.Config {
	cfg := casyn.FlowConfig(layout, s.options(spec))
	cfg.Hooks = s.cfg.Hooks
	return cfg
}

// runSingle maps, places, and routes one K rung.
func (s *Server) runSingle(ctx context.Context, entry *prepEntry, cfg flow.Config, k float64) (*JobResult, error) {
	it, err := flow.RunOnce(ctx, entry.pc, k, cfg)
	if err != nil {
		return nil, err
	}
	return s.buildResult(entry, &it, nil, nil, 0)
}

// runSweep runs the K ladder and reports every rung plus the accepted
// one.
func (s *Server) runSweep(ctx context.Context, entry *prepEntry, cfg flow.Config, spec *JobSpec) (*JobResult, error) {
	cfg.KSchedule = append([]float64(nil), spec.KSchedule...)
	cfg.StopAtFirstRoutable = spec.StopAtFirstRoutable
	if spec.TimeoutMS == 0 && s.cfg.JobTimeout > 0 {
		// The job deadline is already on ctx; per-iteration budgeting
		// keeps one hopeless rung from eating the whole sweep.
		cfg.IterationTimeout = s.cfg.JobTimeout / time.Duration(len(cfg.KSchedule))
	}
	res, err := flow.Run(ctx, entry.pc, cfg)
	if err != nil {
		// flow.Run errors only when the sweep was canceled (possibly
		// with a partial best) or every K failed. A cancellation-
		// truncated ladder must surface as canceled — and must never
		// reach the result cache, which promises byte-identical-to-
		// recompute answers.
		return nil, err
	}
	sums := make([]IterationSummary, 0, len(res.Iterations))
	for i := range res.Iterations {
		sums = append(sums, summarize(&res.Iterations[i]))
	}
	best := res.Best()
	return s.buildResult(entry, best, sums, &best.K, 0)
}

// runAdaptive runs the closed-loop congestion controller: one baseline
// iteration at spec.K (0 = the calibrated default) plus up to two
// steered steps, the spatial K-field inflated from each routed
// congestion map. A single-die run's accepted state becomes its
// lineage's ECO baseline, so an ECO against this job does not re-run
// the loop.
func (s *Server) runAdaptive(ctx context.Context, entry *prepEntry, cfg flow.Config, spec *JobSpec, prepKey string) (*JobResult, error) {
	ares, err := flow.RunAdaptive(ctx, entry.pc, cfg, flow.AdaptiveConfig{BaseK: spec.K})
	if err != nil {
		return nil, err
	}
	best := ares.Best()
	if best == nil {
		return nil, &runstage.StageError{Stage: StageServe,
			Err: fmt.Errorf("adaptive loop completed no iterations")}
	}
	if spec.Dies <= 1 {
		s.ecoCache.add(ecoKey(prepKey, spec), ares.State)
	}
	sums := make([]IterationSummary, 0, len(ares.Iterations))
	for i := range ares.Iterations {
		sums = append(sums, summarize(&ares.Iterations[i].Iteration))
	}
	return s.buildResult(entry, best, sums, nil, ares.RoutedIterations())
}

// summarize is one flow iteration's row in a job result.
func summarize(it *flow.Iteration) IterationSummary {
	sum := IterationSummary{
		K:                 it.K,
		NumCells:          it.NumCells,
		CellArea:          it.CellArea,
		Utilization:       it.Utilization,
		Overflow:          it.Overflow,
		FailedConnections: it.FailedConnections,
		WireLength:        it.WireLength,
		Routable:          it.Routable,
	}
	if it.Err != nil {
		sum.Skipped, sum.Err = true, it.Err.Error()
	}
	return sum
}

// buildResult condenses an accepted iteration into the response shape.
// adaptive is the closed loop's routed iteration count (0 for fixed-K
// jobs); it is set before the report renders, as casyn.Synthesize
// does, so the two reports stay byte-identical.
func (s *Server) buildResult(entry *prepEntry, it *flow.Iteration, sums []IterationSummary, bestK *float64, adaptive int) (*JobResult, error) {
	r := casyn.ResultFrom(entry.dag, entry.layout, it)
	r.AdaptiveIterations = adaptive
	res := &JobResult{
		BaseGates:          r.BaseGates,
		NumCells:           r.NumCells,
		CellArea:           r.CellArea,
		Utilization:        r.Utilization,
		Violations:         r.Violations,
		Routable:           r.Routable,
		WireLength:         r.WireLength,
		CriticalPathNs:     r.CriticalPathNs,
		CriticalPath:       r.CriticalPath,
		Verified:           r.Verify != nil && r.Verify.Equivalent,
		Dies:               r.Dies,
		ReplicatedGates:    r.ReplicatedGates,
		CrossRegionNets:    r.CrossRegionNets,
		Report:             r.Report(),
		Iterations:         sums,
		BestK:              bestK,
		AdaptiveIterations: r.AdaptiveIterations,
	}
	var vb strings.Builder
	if err := r.Mapped.WriteVerilog(&vb, "casyn_top"); err != nil {
		return nil, &runstage.StageError{Stage: StageServe, Err: err}
	}
	res.Verilog = vb.String()
	if m := it.Metrics; m != nil {
		res.StageWallMS = make(map[string]float64, len(m.Stages))
		for _, st := range m.Stages {
			res.StageWallMS[string(st.Stage)] += float64(st.Wall) / float64(time.Millisecond)
		}
	}
	return res, nil
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the daemon down: admission stops immediately
// (ErrDraining / HTTP 503), queued and running jobs get until ctx's
// deadline (or Config.DrainTimeout when it has none) to finish, any
// still in flight after that are canceled — recorded as canceled with
// their partial metrics, never silently lost — and the final metrics
// snapshot is flushed to Config.MetricsSink exactly once. Drain is
// idempotent; concurrent calls all wait for completion.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		// Admission checks s.draining under s.mu before sending, so no
		// send can race this close.
		close(s.queue)
	}
	s.mu.Unlock()

	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("drain deadline: %w", ctx.Err())
		s.cancelAll()
		// Cancellation is cooperative and prompt; the workers observe it
		// within one check interval and finish their jobs as canceled.
		<-done
	}
	s.flushOnce.Do(func() {
		s.rec.Add("serve.metrics_flushes", 1)
		if s.cfg.MetricsSink != nil {
			s.flushErr = obs.WriteJSONL(s.cfg.MetricsSink, s.Metrics())
		}
	})
	s.baseCancel()
	if drainErr != nil {
		return drainErr
	}
	return s.flushErr
}

// cancelAll cancels every non-terminal job (drain deadline expired).
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// Close shuts down immediately: drain with an already-expired window,
// so in-flight jobs are canceled right away. The metrics flush still
// happens (exactly once across Drain/Close).
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if err != nil && s.flushErr != nil {
		return s.flushErr
	}
	return nil
}
