package route

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casyn/internal/bench"
	"casyn/internal/obs"
)

// countdownCtx is a context whose Err turns to context.Canceled once it
// has been called more than limit times; a negative limit never
// cancels. calls counts every Err call.
type countdownCtx struct {
	context.Context
	limit int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if n := c.calls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRouteCanceledMidRipup cancels a congested 30k-cell route halfway
// through its rip-up rounds, at one and at four workers. Two uncanceled
// routes count the Err calls: one without rip-up (everything before the
// negotiation) and one with it. The canceled route must fail with a
// "route: canceled" error wrapping context.Canceled, raised in rip-up
// after a clean first pass, and leave no goroutine behind.
func TestRouteCanceledMidRipup(t *testing.T) {
	if testing.Short() {
		t.Skip("congested 30k-cell routes take seconds")
	}
	nl, pl, layout, err := bench.RouteSpecAt(30_000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{GCellSize: 26.6, CapacityScale: 1, RipupIterations: 5, Workers: workers}
			calls := func(ripup int) int64 {
				t.Helper()
				o := opts
				o.RipupIterations = ripup
				ctx := &countdownCtx{Context: context.Background(), limit: -1}
				if _, err := RouteNetlist(ctx, nl, pl, layout, o); err != nil {
					t.Fatal(err)
				}
				return ctx.calls.Load()
			}
			before, all := calls(-1), calls(opts.RipupIterations)
			if all-before < 100 {
				t.Fatalf("rip-up made %d ctx checks; too few to cancel in the middle", all-before)
			}
			baseline := runtime.NumGoroutine()
			rec := obs.New()
			ctx := &countdownCtx{Context: obs.WithRecorder(context.Background(), rec), limit: before + (all-before)/2}
			_, err := RouteNetlist(ctx, nl, pl, layout, opts)
			if err == nil {
				t.Fatal("canceled route returned no error")
			}
			if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "route: canceled") {
				t.Fatalf("error %q, want a route: canceled error wrapping context.Canceled", err)
			}
			spanErr := map[string]string{}
			for _, sp := range rec.Snapshot().Spans {
				spanErr[sp.Name] = sp.Err
			}
			if e, ok := spanErr["route.first_pass"]; !ok || e != "" {
				t.Errorf("first pass span %q (recorded %v), want a clean first pass", e, ok)
			}
			if spanErr["route.ripup"] == "" {
				t.Errorf("rip-up span ended without the cancellation; spans %v", spanErr)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after the canceled route, %d before", n, baseline)
			}
		})
	}
}
