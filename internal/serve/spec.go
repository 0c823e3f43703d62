package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/logic"
	"casyn/internal/partition"
	"casyn/internal/place"
)

// Request-size limits. A synthesis service must bound what it accepts:
// an absurd job spec is rejected at admission, never run.
const (
	// MaxPLABytes bounds the inline PLA payload.
	MaxPLABytes = 1 << 20
	// MaxKSchedule bounds the rungs of a sweep job.
	MaxKSchedule = 64
	// MaxK bounds the congestion factor (the paper's ladder tops out
	// at 1; 1e6 leaves generous headroom without admitting NaN-adjacent
	// nonsense).
	MaxK = 1e6
	// MaxTimeout bounds per-job and per-stage wall-clock budgets.
	MaxTimeout = time.Hour
	// MaxScale bounds the benchmark scale factor.
	MaxScale = 4.0
	// MaxDieArea bounds an explicit floorplan (µm²).
	MaxDieArea = 1e12
	// MaxWorkers bounds the per-job fan-out a client may request.
	MaxWorkers = 64
	// MaxDies bounds the multi-die region count.
	MaxDies = 64
	// MaxDiePins bounds an explicit inter-die pin budget.
	MaxDiePins = 1 << 20
)

// JobSpec is the JSON body of a job submission: what to synthesize and
// how. Exactly one of PLA (inline Berkeley PLA text) or Bench (a
// built-in benchmark class) selects the circuit.
type JobSpec struct {
	// PLA is the inline Berkeley-format PLA source.
	PLA string `json:"pla,omitempty"`
	// Bench selects a built-in benchmark class: spla, pdc, too_large.
	Bench string `json:"bench,omitempty"`
	// Scale shrinks or grows the benchmark spec (default 1.0).
	Scale float64 `json:"scale,omitempty"`

	// K is the congestion minimization factor for a single-iteration
	// job (ignored when KSchedule is set).
	K float64 `json:"k,omitempty"`
	// KSchedule, when non-empty, runs a K sweep instead of a single
	// iteration; the result reports every rung and the accepted one.
	KSchedule []float64 `json:"k_schedule,omitempty"`
	// StopAtFirstRoutable ends a sweep at the first clean rung.
	StopAtFirstRoutable bool `json:"stop_at_first_routable,omitempty"`
	// KMode selects how K is chosen: "fixed" (default; single iteration
	// at K, or the KSchedule sweep) or "adaptive" — the closed-loop
	// congestion controller (flow.RunAdaptive), which fixes K as the
	// baseline and steers a spatial K-field from the routed congestion
	// map instead of sweeping. "adaptive" excludes k_schedule.
	KMode string `json:"k_mode,omitempty"`

	// Dies tiles the die into N regions and partitions the subject
	// directly k-way with cut-driver replication; routing enforces the
	// inter-die pin budget on region-crossing nets (0/1 = single die).
	// Excludes the ECO chain.
	Dies int `json:"dies,omitempty"`
	// DiePinBudget overrides the inter-die pin budget with dies > 1
	// (0 = derive from the derated boundary capacity, -1 = unchecked).
	DiePinBudget int `json:"die_pin_budget,omitempty"`

	// DieArea fixes the floorplan in µm² (0 = auto-size at the
	// calibrated 58% utilization); AspectRatio is width/height.
	DieArea     float64 `json:"die_area,omitempty"`
	AspectRatio float64 `json:"aspect_ratio,omitempty"`
	// Seed drives randomized tie-breaking (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SIS runs technology-independent optimization before decomposition.
	SIS bool `json:"sis,omitempty"`
	// Partition selects the DAG partitioning: "pdp" (default),
	// "dagon", or "cone".
	Partition string `json:"partition,omitempty"`
	// Timing enables static timing analysis.
	Timing bool `json:"timing,omitempty"`
	// Verify runs the combinational equivalence checker over the
	// pipeline hand-offs.
	Verify bool `json:"verify,omitempty"`

	// TimeoutMS bounds the job's wall clock; StageTimeoutMS each
	// pipeline stage. Zero inherits the server defaults.
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	StageTimeoutMS int64 `json:"stage_timeout_ms,omitempty"`
	// Workers requests a per-job fan-out width (0 inherits the server
	// default; results are identical for every value).
	Workers int `json:"workers,omitempty"`

	// Verilog includes the mapped netlist's structural Verilog in the
	// result body.
	Verilog bool `json:"verilog,omitempty"`
	// NoResultCache forces recomputation even when an identical job's
	// result is cached (the prepared-prefix cache still applies).
	NoResultCache bool `json:"no_result_cache,omitempty"`

	// parsed carries the inline PLA across Validate so the worker does
	// not re-parse it; never serialized.
	parsed *logic.PLA
}

// ParseJobSpec decodes and validates a job submission body. Unknown
// fields are rejected — a misspelled option must fail loudly, not
// silently synthesize with defaults. The returned spec is validated
// (Validate passed) and its PLA, when inline, parsed successfully.
func ParseJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxPLABytes*2))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("bad job spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func validK(k float64) error {
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("k must be finite")
	}
	if k < 0 {
		return fmt.Errorf("k must be >= 0 (got %g)", k)
	}
	if k > MaxK {
		return fmt.Errorf("k %g exceeds the limit %g", k, MaxK)
	}
	return nil
}

// Validate bounds every field of the spec; a spec that passes is safe
// to admit. It also parses an inline PLA (the parse result is cached
// on the spec for the worker).
func (s *JobSpec) Validate() error {
	switch {
	case s.PLA == "" && s.Bench == "":
		return fmt.Errorf("need exactly one of pla or bench")
	case s.PLA != "" && s.Bench != "":
		return fmt.Errorf("pla and bench are mutually exclusive")
	}
	if len(s.PLA) > MaxPLABytes {
		return fmt.Errorf("pla payload %d bytes exceeds the %d-byte limit", len(s.PLA), MaxPLABytes)
	}
	if s.PLA != "" {
		p, err := logic.ReadPLA(strings.NewReader(s.PLA))
		if err != nil {
			return fmt.Errorf("bad pla payload: %w", err)
		}
		s.parsed = p
	}
	if s.Bench != "" {
		if _, ok := bench.ParseClass(s.Bench); !ok {
			return fmt.Errorf("unknown bench %q (want spla, pdc, too_large)", s.Bench)
		}
		if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale < 0 || s.Scale > MaxScale {
			return fmt.Errorf("scale must be in (0, %g] (got %g)", MaxScale, s.Scale)
		}
	}
	if err := validK(s.K); err != nil {
		return err
	}
	if len(s.KSchedule) > MaxKSchedule {
		return fmt.Errorf("k_schedule has %d rungs, limit %d", len(s.KSchedule), MaxKSchedule)
	}
	for i, k := range s.KSchedule {
		if err := validK(k); err != nil {
			return fmt.Errorf("k_schedule[%d]: %w", i, err)
		}
	}
	switch s.KMode {
	case "", "fixed":
	case "adaptive":
		if len(s.KSchedule) > 0 {
			return fmt.Errorf("k_mode adaptive and k_schedule are mutually exclusive (the controller steers K itself)")
		}
	default:
		return fmt.Errorf("unknown k_mode %q (want fixed, adaptive)", s.KMode)
	}
	if s.Dies < 0 || s.Dies > MaxDies {
		return fmt.Errorf("dies must be in [0, %d] (got %d)", MaxDies, s.Dies)
	}
	if s.DiePinBudget != 0 {
		if s.Dies <= 1 {
			return fmt.Errorf("die_pin_budget needs dies > 1")
		}
		if s.DiePinBudget < -1 || s.DiePinBudget > MaxDiePins {
			return fmt.Errorf("die_pin_budget must be in [-1, %d] (got %d)", MaxDiePins, s.DiePinBudget)
		}
	}
	if math.IsNaN(s.DieArea) || math.IsInf(s.DieArea, 0) || s.DieArea < 0 || s.DieArea > MaxDieArea {
		return fmt.Errorf("die_area must be in [0, %g] (got %g)", MaxDieArea, s.DieArea)
	}
	if s.AspectRatio != 0 &&
		(math.IsNaN(s.AspectRatio) || s.AspectRatio < 0.1 || s.AspectRatio > 10) {
		return fmt.Errorf("aspect_ratio must be 0 or in [0.1, 10] (got %g)", s.AspectRatio)
	}
	if _, ok := partition.ParseMethod(s.Partition); s.Partition != "" && !ok {
		return fmt.Errorf("unknown partition %q (want pdp, dagon, cone)", s.Partition)
	}
	if s.TimeoutMS < 0 || time.Duration(s.TimeoutMS)*time.Millisecond > MaxTimeout {
		return fmt.Errorf("timeout_ms must be in [0, %d]", MaxTimeout.Milliseconds())
	}
	if s.StageTimeoutMS < 0 || time.Duration(s.StageTimeoutMS)*time.Millisecond > MaxTimeout {
		return fmt.Errorf("stage_timeout_ms must be in [0, %d]", MaxTimeout.Milliseconds())
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("workers must be in [0, %d] (got %d)", MaxWorkers, s.Workers)
	}
	return nil
}

// kmode canonicalizes KMode so "" and "fixed" share a result-cache
// entry (they run the identical computation).
func (s *JobSpec) kmode() string {
	if s.KMode == "" {
		return "fixed"
	}
	return s.KMode
}

// adaptive reports the closed-loop mode.
func (s *JobSpec) adaptive() bool { return s.KMode == "adaptive" }

// runK is the K the job runs at: an adaptive job's zero k is the
// loop's default BaseK. Keys use it, so equivalent jobs share entries.
func (s *JobSpec) runK() float64 {
	if s.adaptive() && s.K <= 0 {
		return flow.DefaultAdaptiveBaseK
	}
	return s.K
}

// options maps the spec onto the casyn Options the daemon shares with
// the one-shot CLI — the single source of the calibrated operating
// point, so daemon results are byte-identical to cmd/casyn.
func (s *JobSpec) options() casyn.Options {
	// Validate admitted the name; "" parses to the zero Method, PDP.
	method, _ := partition.ParseMethod(s.Partition)
	return casyn.Options{
		K:                       s.K,
		Dies:                    s.Dies,
		InterDiePinBudget:       s.DiePinBudget,
		DieArea:                 s.DieArea,
		AspectRatio:             s.AspectRatio,
		OptimizeTechIndependent: s.SIS,
		Partition:               method,
		Seed:                    s.Seed,
		RunTiming:               s.Timing,
		Verify:                  s.Verify,
		StageTimeout:            time.Duration(s.StageTimeoutMS) * time.Millisecond,
		Workers:                 s.Workers,
	}
}

// subjectPLA materializes the circuit: the parsed inline PLA, or the
// generated benchmark.
func (s *JobSpec) subjectPLA() (*logic.PLA, error) {
	if s.parsed != nil {
		return s.parsed, nil
	}
	if s.PLA != "" {
		return logic.ReadPLA(strings.NewReader(s.PLA))
	}
	class, ok := bench.ParseClass(s.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown bench %q", s.Bench)
	}
	return bench.Generate(class.SpecAt(s.scale()))
}

// scale is the benchmark scale the job runs at: 1 when unset.
func (s *JobSpec) scale() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}

// PrepKey identifies the K-invariant prefix of the job: everything
// that determines the subject DAG, its technology-independent
// placement, and the match enumeration — circuit bytes (canonicalized
// through the parser, so formatting differences share an entry),
// synthesis style, partition method, placement seed, and floorplan.
// A zero scale, partition, seed or aspect ratio is keyed as the value
// it runs with, so it shares an entry with its explicit spelling.
// K, budgets, worker counts, and output options are deliberately
// excluded: they do not change the prefix.
func (s *JobSpec) PrepKey() (string, error) {
	h := sha256.New()
	if s.PLA != "" {
		p, err := s.subjectPLA()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "pla\n")
		if err := p.Write(h); err != nil {
			return "", err
		}
	} else {
		fmt.Fprintf(h, "bench %s scale %g\n", s.Bench, s.scale())
	}
	opts := s.options()
	aspect := opts.AspectRatio
	if aspect == 0 {
		aspect = 1 // casyn.LayoutFor's square die
	}
	fmt.Fprintf(h, "sis %v partition %s seed %d die %g aspect %g\n", s.SIS, opts.Partition,
		casyn.FlowConfig(place.Layout{}, opts).PlaceOpts.Seed, s.DieArea, aspect)
	if s.Dies > 1 {
		// Multi-die prep partitions the forest k-way, replicates cut
		// drivers, and — with verify — proves the replicated subject
		// equivalent; all of that lives in the prepared prefix, so both
		// knobs shape the key. Single-die keys are unchanged.
		fmt.Fprintf(h, "dies %d verify %v\n", s.Dies, s.Verify)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ResultKey identifies the complete deterministic result: the prefix
// key plus everything K-dependent and report-affecting. Two jobs with
// equal result keys produce byte-identical results, so the result
// cache may serve one for the other. A sweep ignores k, so its key
// does too; only a sweep reads stop_at_first_routable, so only its key
// does; and an adaptive job's zero k is keyed as the BaseK it runs
// with.
func (s *JobSpec) ResultKey() (string, error) {
	pk, err := s.PrepKey()
	if err != nil {
		return "", err
	}
	k, stop := s.runK(), false
	if len(s.KSchedule) > 0 {
		k, stop = 0, s.StopAtFirstRoutable
	}
	h := sha256.New()
	fmt.Fprintf(h, "prep %s k %g sched %v stop %v kmode %s timing %v verify %v\n",
		pk, k, s.KSchedule, stop, s.kmode(), s.Timing, s.Verify)
	if s.DiePinBudget != 0 {
		// The pin budget gates route admission, not the prefix.
		fmt.Fprintf(h, "diepins %d\n", s.DiePinBudget)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
