// Package runstage is the fault-isolation layer of the flow engine:
// stage-tagged error types, panic recovery, per-stage wall-clock
// budgets, and injectable fault points for testing.
//
// The paper's methodology (Figure 3) is an iterative sweep over the
// congestion factor K; a production flow engine must survive a bad
// iteration — a mapper panic on a pathological tree, a router that
// blows its time budget on a hopeless floorplan — without losing the
// whole sweep. Every pipeline stage therefore executes through Run,
// which converts panics into typed *StageError values, enforces an
// optional wall-clock budget via context deadlines, and gives tests a
// per-stage point to inject failures, panics, and delays.
package runstage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"casyn/internal/obs"
)

// Stage names one phase of the synthesis pipeline.
type Stage string

// The pipeline stages, in flow order.
const (
	StagePrepare Stage = "prepare"
	// StageMapPrepare is the once-per-sweep K-invariant mapping prefix
	// (partition + match enumeration, flow.PrepareMapping); it runs
	// before the K ladder, not inside an iteration.
	StageMapPrepare Stage = "map_prepare"
	StageMap        Stage = "map"
	// StageECO is the edit-scoped invalidation of a prepared mapping
	// context (flow.RunECO): applying an EditSet and re-enumerating
	// only the matches inside the edit's cone.
	StageECO    Stage = "eco"
	StageVerify Stage = "verify"
	StagePlace  Stage = "place"
	StageRoute  Stage = "route"
	StageSTA    Stage = "sta"
)

// StageError tags a stage failure with the pipeline stage and the
// congestion factor K of the iteration it happened in. It wraps the
// cause, so errors.Is(err, context.DeadlineExceeded) sees through it.
type StageError struct {
	Stage Stage
	// K is the congestion factor of the failing iteration; for
	// per-design work (StagePrepare) it is 0 and meaningless.
	K float64
	// Err is the wrapped cause. For a recovered panic it is a
	// synthesized error carrying the panic value's formatting.
	Err error
	// Panicked reports that the stage panicked rather than returning an
	// error; PanicValue and Stack preserve the recovered value and the
	// goroutine stack for diagnosis.
	Panicked   bool
	PanicValue any
	Stack      []byte
}

// Error implements the error interface.
func (e *StageError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("%s stage (K=%g): panic: %v", e.Stage, e.K, e.PanicValue)
	}
	return fmt.Sprintf("%s stage (K=%g): %v", e.Stage, e.K, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Timeout reports whether the stage failed by exceeding a deadline
// (its own budget or an enclosing one).
func (e *StageError) Timeout() bool { return errors.Is(e.Err, context.DeadlineExceeded) }

// Canceled reports whether the stage failed because the run was
// canceled.
func (e *StageError) Canceled() bool { return errors.Is(e.Err, context.Canceled) }

// AsStage extracts the *StageError from an error chain, or nil.
func AsStage(err error) *StageError {
	var se *StageError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// Fault is one injectable failure point, matched by stage and K.
// Exactly one of Err/Panic should be set (Delay may accompany either,
// or stand alone). Faults exist for tests: they let a flow test make
// one iteration of a K-sweep fail, panic, or stall without reaching
// into the stage implementations.
type Fault struct {
	Stage Stage
	// K selects the iteration to fault; AllK faults every iteration.
	K    float64
	AllK bool
	// Err, when non-nil, is returned as the stage's failure.
	Err error
	// Panic, when non-nil, is raised as a panic inside the stage
	// (exercising the recovery path).
	Panic any
	// Delay stalls the stage before it starts, honoring context
	// cancellation (exercising budget enforcement).
	Delay time.Duration
	// Rate, when in (0,1), makes the fault probabilistic: each matching
	// stage execution draws from the hooks' seeded RNG and the fault
	// applies only when the draw lands below Rate — a transient failure
	// a retrying caller should eventually get past. The draw sequence
	// is deterministic per Hooks.Seed (under concurrency the draws are
	// serialized but their assignment to stages follows scheduling
	// order, so per-seed determinism is exact only for serial
	// execution). Zero or ≥1 means the fault always applies.
	Rate float64
}

// Hooks carries the fault injection points threaded through the flow
// configuration. A nil *Hooks injects nothing.
type Hooks struct {
	Faults []Fault
	// Seed seeds the RNG behind probabilistic (Rate) faults; 0 means 1.
	Seed int64

	mu  sync.Mutex
	rng *rand.Rand
}

// roll draws one uniform [0,1) variate from the hooks' seeded RNG,
// initializing it from Seed on first use.
func (h *Hooks) roll() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rng == nil {
		seed := h.Seed
		if seed == 0 {
			seed = 1
		}
		h.rng = rand.New(rand.NewSource(seed))
	}
	return h.rng.Float64()
}

// InjectedCounter is the obs counter bumped every time a fault
// actually applies (Prometheus: casyn_faults_injected_total) — the
// chaos suite's ground truth for how much failure it really injected.
const InjectedCounter = "faults.injected"

// fire applies the first matching fault. It may sleep, panic, or
// return an error to be treated as the stage's failure.
func (h *Hooks) fire(ctx context.Context, stage Stage, k float64) error {
	if h == nil {
		return nil
	}
	for i := range h.Faults {
		f := &h.Faults[i]
		if f.Stage != stage || (!f.AllK && f.K != k) {
			continue
		}
		if f.Rate > 0 && f.Rate < 1 && h.roll() >= f.Rate {
			// The transient fault spared this execution; later faults in
			// the list still get their chance.
			continue
		}
		obs.From(ctx).Add(InjectedCounter, 1)
		if f.Delay > 0 {
			t := time.NewTimer(f.Delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		if f.Panic != nil {
			panic(f.Panic)
		}
		if f.Err != nil {
			return f.Err
		}
		return nil
	}
	return nil
}

// SpanName is the observability span a stage records under
// ("stage.<name>"); flow.Metrics and the golden fingerprints key stage
// timings by it.
func SpanName(stage Stage) string { return spanPrefix + string(stage) }

// StageOf is SpanName's inverse: the stage a span name records, and
// whether it names one.
func StageOf(span string) (Stage, bool) {
	name, ok := strings.CutPrefix(span, spanPrefix)
	return Stage(name), ok && name != ""
}

const spanPrefix = "stage."

// Run executes one pipeline stage with fault isolation: an optional
// wall-clock budget (0 means none) is applied as a context deadline, a
// panic inside fn is recovered into a typed *StageError, and any error
// out of fn is tagged with the stage and K. The context passed to fn
// carries the budget; fn is expected to check it cooperatively.
//
// Run is also where stage wall time is measured, exactly once: when
// the context carries an *obs.Recorder, the stage runs inside a span
// named SpanName(stage) tagged with K. The span ends even when fn
// fails, times out, or panics, so a budget-blown iteration still
// reports how long each stage actually ran — consumers (flow.Metrics)
// read these spans instead of re-measuring around Run.
func Run[T any](ctx context.Context, stage Stage, k float64, budget time.Duration, hooks *Hooks, fn func(context.Context) (T, error)) (out T, err error) {
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	ctx, span := obs.From(ctx).StartSpan(ctx, SpanName(stage))
	span.SetK(k)
	// Registered before the recover defer so it runs after it (LIFO)
	// and sees the final err, panics included.
	defer func() { span.End(err) }()
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{
				Stage:      stage,
				K:          k,
				Err:        fmt.Errorf("panic: %v", r),
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
		}
	}()
	if herr := hooks.fire(ctx, stage, k); herr != nil {
		return out, &StageError{Stage: stage, K: k, Err: herr}
	}
	out, ferr := fn(ctx)
	if ferr != nil {
		// A stage that aborted on its budget often surfaces the bare
		// wrapped ctx error; prefer the deadline cause when present so
		// Timeout() answers correctly even if fn wrapped loosely.
		if ctx.Err() != nil && !errors.Is(ferr, ctx.Err()) {
			ferr = fmt.Errorf("%w (%v)", ctx.Err(), ferr)
		}
		return out, &StageError{Stage: stage, K: k, Err: ferr}
	}
	return out, nil
}
