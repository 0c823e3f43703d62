package serve

// Incremental ECO jobs: POST /jobs/{id}/eco applies an edit set
// against a completed job's synthesis lineage. The parent job's
// PrepKey locates the shared prepared context in the LRU (the
// decomposed DAG, placed technology-independent netlist, and the
// K-invariant match enumeration); a per-(prefix, K, k_mode) baseline
// state — the covering and routing residue of the unedited design, for
// an adaptive parent the state of the closed loop's accepted
// iteration — is built once and cached; flow.RunECO then re-prepares,
// re-covers, and re-routes only what the edits dirtied. The ECO job rides the same
// bounded queue, admission control, retry, and panic isolation as any
// submission.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"casyn/internal/flow"
	"casyn/internal/mapper"
)

// EcoSpec is the JSON body of an ECO submission.
type EcoSpec struct {
	// Edits is the edit-set array (mapper wire form): gate_func,
	// reconnect, nudge, swap operations.
	Edits json.RawMessage `json:"edits"`
	// K overrides the congestion factor; default is the parent job's K
	// (a sweep parent's accepted rung; for an adaptive parent, the
	// baseline the loop reruns at).
	K *float64 `json:"k,omitempty"`
	// Fast selects incremental placement and rerouting (only the cells
	// and nets the edit changed move, against the persisted congestion
	// history) instead of the byte-identical from-scratch placement and
	// route of the edited design.
	Fast bool `json:"fast,omitempty"`
	// Verilog / TimeoutMS / NoResultCache mirror JobSpec.
	Verilog       bool  `json:"verilog,omitempty"`
	TimeoutMS     int64 `json:"timeout_ms,omitempty"`
	NoResultCache bool  `json:"no_result_cache,omitempty"`

	// edits is the decoded set, parsed once at admission.
	edits mapper.EditSet
}

// ParseEcoSpec decodes and validates an ECO submission body. The edit
// set's shape is checked here (unknown ops, missing fields, size); its
// semantic validity against the concrete design is checked by the
// pipeline, where a bad edit fails the job with stage "eco".
func ParseEcoSpec(r io.Reader) (*EcoSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, mapper.MaxEditSetBytes*2))
	dec.DisallowUnknownFields()
	spec := &EcoSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("bad eco spec: %w", err)
	}
	if len(spec.Edits) == 0 {
		return nil, fmt.Errorf("bad eco spec: need a non-empty edits array")
	}
	doc, err := json.Marshal(struct {
		Edits json.RawMessage `json:"edits"`
	}{spec.Edits})
	if err != nil {
		return nil, fmt.Errorf("bad eco spec: %w", err)
	}
	spec.edits, err = mapper.ParseEditSet(doc)
	if err != nil {
		return nil, fmt.Errorf("bad eco spec: %w", err)
	}
	if len(spec.edits.Edits) == 0 {
		return nil, fmt.Errorf("bad eco spec: empty edit set")
	}
	if spec.K != nil {
		if err := validK(*spec.K); err != nil {
			return nil, fmt.Errorf("bad eco spec: %w", err)
		}
	}
	if spec.TimeoutMS < 0 || time.Duration(spec.TimeoutMS)*time.Millisecond > MaxTimeout {
		return nil, fmt.Errorf("bad eco spec: timeout_ms must be in [0, %d]", MaxTimeout.Milliseconds())
	}
	return spec, nil
}

// ErrParentNotDone rejects an ECO against a job that has not completed
// successfully — there is no synthesis lineage to edit yet.
var ErrParentNotDone = fmt.Errorf("eco: parent job is not done")

// ErrEcoParent rejects chaining an ECO off another ECO job; edits
// compose into one set against the original job instead.
var ErrEcoParent = fmt.Errorf("eco: parent is itself an eco job; submit the combined edits against the original job")

// ErrEcoMultiDie rejects an ECO against a multi-die parent; the ECO
// chain's incremental state (covering and routing residue) is
// single-die and has no model of the replicated, region-assigned
// forest.
var ErrEcoMultiDie = fmt.Errorf("eco: parent is a multi-die job; the eco chain is single-die")

// ecoJob is the ECO payload riding on a queued Job.
type ecoJob struct {
	parent string
	edits  mapper.EditSet
	fast   bool
}

// ECOInfo annotates an ECO job's result.
type ECOInfo struct {
	// Parent is the job whose synthesis lineage the edits were applied
	// against.
	Parent string `json:"parent"`
	// Edits is the number of operations in the applied set.
	Edits int `json:"edits"`
	// K is the congestion factor the incremental synthesis ran at; for
	// an adaptive parent, the baseline its K-field multiplies.
	K float64 `json:"k"`
	// KMode is the parent's K-selection mode, which the edits run
	// under: an adaptive parent's edits re-cover under the K-field of
	// the iteration the parent reported.
	KMode string `json:"k_mode"`
	// FastRoute reports the incremental (territory-scoped) reroute.
	FastRoute bool `json:"fast_route,omitempty"`
}

// SubmitECO validates and admits an incremental job against a
// completed parent. The derived job inherits the parent's circuit and
// synthesis options, k_mode included (so its PrepKey — and therefore
// its prepared context — is the parent's), fixes a single K, and
// carries the edit set to the worker.
func (s *Server) SubmitECO(parent *Job, spec *EcoSpec) (*Job, error) {
	if parent.eco != nil {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, ErrEcoParent
	}
	if parent.Status() != StatusDone {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, ErrParentNotDone
	}
	if parent.Spec.Dies > 1 {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, ErrEcoMultiDie
	}
	k := parent.Spec.K
	if res, _ := parent.Result(); res != nil && res.BestK != nil {
		k = *res.BestK
	}
	if spec.K != nil {
		k = *spec.K
	}
	if err := validK(k); err != nil {
		s.rec.Add("serve.jobs_invalid", 1)
		return nil, err
	}

	derived := parent.Spec
	derived.K = k
	derived.KSchedule = nil
	derived.StopAtFirstRoutable = false
	derived.Verilog = spec.Verilog
	derived.NoResultCache = spec.NoResultCache
	if spec.TimeoutMS > 0 {
		derived.TimeoutMS = spec.TimeoutMS
	}

	// The result key hashes the canonical (re-marshaled) edit set, so
	// formatting differences in the submitted JSON share a cache entry.
	canon, err := json.Marshal(spec.edits)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	// The k_mode rides in the key: an adaptive parent's edits re-cover
	// under its K-field, so they differ from a fixed-K parent's.
	fmt.Fprintf(h, "eco %s k %g fast %v timing %v verify %v kmode %s edits %s\n",
		parent.prepKey, k, spec.Fast, derived.Timing, derived.Verify, derived.kmode(), canon)
	resultKey := hex.EncodeToString(h.Sum(nil))

	return s.admit(derived, parent.prepKey, resultKey,
		&ecoJob{parent: parent.ID, edits: spec.edits, fast: spec.Fast})
}

// runJobECO executes one incremental job after runJob's result-cache
// miss: prepared context by the parent's PrepKey, cached baseline
// state, then flow.RunECO.
func (s *Server) runJobECO(ctx context.Context, job *Job) (*JobResult, error) {
	spec := &job.Spec
	entry, cacheTag, err := s.prepared(ctx, spec, job.prepKey)
	if err != nil {
		return nil, err
	}
	cfg := s.flowConfig(spec, entry.layout)
	cfg.FastECORoute = job.eco.fast

	st, err := s.ecoBaseline(ctx, entry, cfg, job.prepKey, spec)
	if err != nil {
		return nil, err
	}
	it, _, err := flow.RunECO(ctx, entry.pc, st, job.eco.edits, cfg)
	flow.MergeMetrics(ctx, it.Metrics)
	if err != nil {
		return nil, err
	}
	res, err := s.buildResult(entry, &it, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	res.Cache = cacheTag
	res.ECO = &ECOInfo{Parent: job.eco.parent, Edits: len(job.eco.edits.Edits),
		K: st.K, KMode: spec.kmode(), FastRoute: job.eco.fast}
	s.resCache.add(job.resultKey, res.clone())
	return res, nil
}

// ecoBaseline returns the cached baseline state for (prefix, K,
// k_mode) — the unedited design's covering and routing residue every
// ECO against this lineage is diffed from — computing and caching it
// on first use: flow.RunStateful at K, or for an adaptive parent the
// accepted iteration of flow.RunAdaptive from baseline K. The state is
// immutable after construction (RunECO never mutates its input state),
// so concurrent ECO jobs share it freely.
func (s *Server) ecoBaseline(ctx context.Context, entry *prepEntry, cfg flow.Config, prepKey string, spec *JobSpec) (*flow.ECOState, error) {
	key := fmt.Sprintf("%s|k=%g|%s", prepKey, spec.K, spec.kmode())
	if st, ok := s.ecoCache.get(key); ok {
		s.rec.Add("serve.cache.eco_hits", 1)
		return st, nil
	}
	s.rec.Add("serve.cache.eco_misses", 1)
	var st *flow.ECOState
	if spec.adaptive() {
		ares, err := flow.RunAdaptive(ctx, entry.pc, cfg, flow.AdaptiveConfig{BaseK: spec.K})
		if err != nil {
			return nil, err
		}
		st = ares.State
	} else {
		it, stK, err := flow.RunStateful(ctx, entry.pc, spec.K, cfg)
		flow.MergeMetrics(ctx, it.Metrics)
		if err != nil {
			return nil, err
		}
		st = stK
	}
	s.ecoCache.add(key, st)
	return st, nil
}
