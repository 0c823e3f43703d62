package serve

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzJobSpec drives the job-submission decoder with arbitrary bytes:
// any input must either yield a fully-validated spec or an error —
// never panic — and every accepted spec must satisfy the admission
// bounds (so a worker can run it blind) and produce stable cache keys.
func FuzzJobSpec(f *testing.F) {
	// Valid specs.
	f.Add(`{"pla":` + strconv.Quote(tinyPLA) + `,"k":0.5}`)
	f.Add(`{"bench":"spla","scale":0.1,"k":0}`)
	f.Add(`{"bench":"pdc","k_schedule":[0,0.25,0.5,1],"stop_at_first_routable":true}`)
	f.Add(`{"bench":"too_large","timing":true,"verify":true,"verilog":true,"seed":7}`)
	f.Add(`{"pla":` + strconv.Quote(tinyPLA) + `,"die_area":5000,"aspect_ratio":2,"workers":4}`)
	// Combined modes: the closed loop over a k-way prefix.
	f.Add(`{"bench":"spla","scale":0.1,"k_mode":"adaptive","dies":2}`)
	f.Add(`{"bench":"pdc","k":0.002,"k_mode":"adaptive","dies":4,"die_pin_budget":-1,"verify":true,"timing":true}`)
	f.Add(`{"pla":` + strconv.Quote(tinyPLA) + `,"k_mode":"adaptive","dies":2,"die_pin_budget":64,"partition":"cone","sis":true}`)
	f.Add(`{"bench":"spla","k_mode":"adaptive","dies":2,"k_schedule":[0,1]}`) // adaptive excludes a sweep
	f.Add(`{"bench":"spla","k_mode":"adaptive","dies":65}`)                   // over MaxDies
	// Malformed JSON.
	f.Add(`{`)
	f.Add(`{"pla":`)
	f.Add(`[1,2,3]`)
	f.Add(`"just a string"`)
	f.Add(``)
	// Structurally valid, semantically hostile.
	f.Add(`{"pla":"not a pla at all"}`)
	f.Add(`{"bench":"spla","pla":"x"}`)
	f.Add(`{"bench":"unknown"}`)
	f.Add(`{"bench":"spla","k":-1}`)
	f.Add(`{"bench":"spla","k":1e309}`)             // overflows to +Inf
	f.Add(`{"bench":"spla","scale":99}`)            // over MaxScale
	f.Add(`{"bench":"spla","timeout_ms":-5}`)       // negative budget
	f.Add(`{"bench":"spla","stage_timeout_ms":-5}`) // negative budget
	f.Add(`{"bench":"spla","workers":100000}`)      // over MaxWorkers
	f.Add(`{"bench":"spla","aspect_ratio":0.0001}`) // degenerate die
	f.Add(`{"bench":"spla","die_area":1e300}`)      // absurd die
	f.Add(`{"bench":"spla","unknown_field":1}`)     // unknown field
	// Huge k_schedule (over MaxKSchedule).
	f.Add(`{"bench":"spla","k_schedule":[` + strings.Repeat("0,", MaxKSchedule*2) + `0]}`)
	// Null and type-confused fields.
	f.Add(`{"pla":null,"bench":null}`)
	f.Add(`{"bench":"spla","k":"high"}`)
	f.Add(`{"bench":"spla","k_schedule":0.5}`)

	f.Fuzz(func(t *testing.T, data string) {
		spec, err := ParseJobSpec(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted specs obey every admission bound.
		if spec.PLA == "" && spec.Bench == "" {
			t.Fatal("accepted spec with no circuit")
		}
		if spec.PLA != "" && spec.Bench != "" {
			t.Fatal("accepted spec with both pla and bench")
		}
		if len(spec.PLA) > MaxPLABytes {
			t.Fatalf("accepted %d-byte pla", len(spec.PLA))
		}
		if spec.K < 0 || spec.K > MaxK {
			t.Fatalf("accepted k %g", spec.K)
		}
		if len(spec.KSchedule) > MaxKSchedule {
			t.Fatalf("accepted %d-rung schedule", len(spec.KSchedule))
		}
		if spec.Workers < 0 || spec.Workers > MaxWorkers {
			t.Fatalf("accepted workers %d", spec.Workers)
		}
		if d := time.Duration(spec.TimeoutMS) * time.Millisecond; d < 0 || d > MaxTimeout {
			t.Fatalf("accepted timeout %d ms", spec.TimeoutMS)
		}
		// Cache keys exist and are deterministic for accepted specs.
		pk1, err := spec.PrepKey()
		if err != nil {
			t.Fatalf("accepted spec has no prep key: %v", err)
		}
		pk2, _ := spec.PrepKey()
		if pk1 != pk2 {
			t.Fatalf("prep key not deterministic: %s vs %s", pk1, pk2)
		}
		rk, err := spec.ResultKey()
		if err != nil {
			t.Fatalf("accepted spec has no result key: %v", err)
		}
		if rk == pk1 {
			t.Fatal("result key degenerate (equals prep key)")
		}
		// An inline PLA must already be parsed and materializable.
		if spec.PLA != "" {
			if _, err := spec.subjectPLA(); err != nil {
				t.Fatalf("accepted inline pla does not materialize: %v", err)
			}
		}
	})
}
