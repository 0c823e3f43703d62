package runstage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"casyn/internal/obs"
)

func TestRunPassesThroughResult(t *testing.T) {
	got, err := Run(context.Background(), StageMap, 0.001, 0, nil, func(context.Context) (int, error) {
		return 42, nil
	})
	if err != nil || got != 42 {
		t.Fatalf("Run = %d, %v", got, err)
	}
}

func TestRunTagsErrors(t *testing.T) {
	cause := errors.New("no match at gate 7")
	_, err := Run(context.Background(), StageMap, 0.5, 0, nil, func(context.Context) (int, error) {
		return 0, cause
	})
	se := AsStage(err)
	if se == nil {
		t.Fatalf("error %v is not a StageError", err)
	}
	if se.Stage != StageMap || se.K != 0.5 || se.Panicked {
		t.Errorf("StageError = %+v", se)
	}
	if !errors.Is(err, cause) {
		t.Error("cause not reachable through Unwrap")
	}
	if want := "map stage (K=0.5): no match at gate 7"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := Run(context.Background(), StageRoute, 0.01, 0, nil, func(context.Context) (int, error) {
		panic("index out of range [12] with length 4")
	})
	se := AsStage(err)
	if se == nil {
		t.Fatalf("panic not converted to StageError: %v", err)
	}
	if !se.Panicked || se.PanicValue != "index out of range [12] with length 4" {
		t.Errorf("StageError = %+v", se)
	}
	if len(se.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(err.Error(), "panic:") {
		t.Errorf("Error() = %q does not mention the panic", err.Error())
	}
}

func TestRunEnforcesBudget(t *testing.T) {
	start := time.Now()
	_, err := Run(context.Background(), StagePlace, 0, 20*time.Millisecond, nil, func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, fmt.Errorf("place: %w", ctx.Err())
	})
	if time.Since(start) > 5*time.Second {
		t.Fatal("budget not enforced")
	}
	se := AsStage(err)
	if se == nil || !se.Timeout() {
		t.Fatalf("expected timeout StageError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("DeadlineExceeded not reachable through wrapping")
	}
}

func TestRunMarksLooselyWrappedTimeout(t *testing.T) {
	// A stage that notices the deadline but returns its own error must
	// still report as a timeout.
	_, err := Run(context.Background(), StageRoute, 0, 10*time.Millisecond, nil, func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, errors.New("router gave up")
	})
	se := AsStage(err)
	if se == nil || !se.Timeout() {
		t.Fatalf("expected timeout StageError, got %v", err)
	}
}

func TestHooksInjectError(t *testing.T) {
	injected := errors.New("injected router failure")
	h := &Hooks{Faults: []Fault{{Stage: StageRoute, K: 0.001, Err: injected}}}
	// Non-matching K runs normally.
	got, err := Run(context.Background(), StageRoute, 0.5, 0, h, func(context.Context) (int, error) { return 1, nil })
	if err != nil || got != 1 {
		t.Fatalf("non-matching fault fired: %d, %v", got, err)
	}
	// Matching K fails with the injected cause.
	_, err = Run(context.Background(), StageRoute, 0.001, 0, h, func(context.Context) (int, error) { return 1, nil })
	if !errors.Is(err, injected) {
		t.Fatalf("injected fault missing: %v", err)
	}
	if se := AsStage(err); se == nil || se.Stage != StageRoute {
		t.Errorf("injected fault not stage-tagged: %v", err)
	}
}

func TestHooksInjectPanic(t *testing.T) {
	h := &Hooks{Faults: []Fault{{Stage: StageMap, AllK: true, Panic: "boom"}}}
	_, err := Run(context.Background(), StageMap, 0.25, 0, h, func(context.Context) (int, error) { return 1, nil })
	se := AsStage(err)
	if se == nil || !se.Panicked || se.PanicValue != "boom" {
		t.Fatalf("injected panic not recovered: %v", err)
	}
}

func TestHooksDelayHonorsCancellation(t *testing.T) {
	h := &Hooks{Faults: []Fault{{Stage: StagePlace, AllK: true, Delay: time.Hour}}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, StagePlace, 0, 0, h, func(context.Context) (int, error) { return 1, nil })
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored cancellation")
	}
	if se := AsStage(err); se == nil || !se.Timeout() {
		t.Fatalf("expected timeout, got %v", err)
	}
}

func TestRateFaultIsProbabilisticAndSeeded(t *testing.T) {
	injected := errors.New("transient blip")
	count := func(seed int64) (failures int, pattern []bool) {
		h := &Hooks{
			Seed:   seed,
			Faults: []Fault{{Stage: StageRoute, AllK: true, Err: injected, Rate: 0.4}},
		}
		for i := 0; i < 200; i++ {
			_, err := Run(context.Background(), StageRoute, 0.5, 0, h, func(context.Context) (int, error) { return 1, nil })
			if err != nil {
				if !errors.Is(err, injected) {
					t.Fatalf("unexpected error: %v", err)
				}
				failures++
			}
			pattern = append(pattern, err != nil)
		}
		return failures, pattern
	}
	n1, p1 := count(7)
	if n1 == 0 || n1 == 200 {
		t.Fatalf("Rate=0.4 fired %d/200 times — not probabilistic", n1)
	}
	// Loose statistical sanity: 200 draws at 0.4 land in [40, 120]
	// except with negligible probability.
	if n1 < 40 || n1 > 120 {
		t.Errorf("Rate=0.4 fired %d/200 times — far off the rate", n1)
	}
	// Same seed → identical fire pattern; different seed → (almost
	// surely) a different one.
	_, p1again := count(7)
	for i := range p1 {
		if p1[i] != p1again[i] {
			t.Fatalf("seed 7 not deterministic at draw %d", i)
		}
	}
	_, p2 := count(8)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical fire patterns")
	}
}

func TestRateZeroAlwaysFires(t *testing.T) {
	injected := errors.New("hard fault")
	h := &Hooks{Faults: []Fault{{Stage: StageMap, AllK: true, Err: injected}}}
	for i := 0; i < 10; i++ {
		if _, err := Run(context.Background(), StageMap, 0, 0, h, func(context.Context) (int, error) { return 1, nil }); !errors.Is(err, injected) {
			t.Fatalf("always-on fault skipped on run %d: %v", i, err)
		}
	}
}

func TestSparedRateFaultFallsThroughToLaterFaults(t *testing.T) {
	// When the transient fault spares an execution, a later always-on
	// fault for the same stage must still apply.
	transient := errors.New("transient")
	hard := errors.New("hard")
	h := &Hooks{
		Seed: 3,
		Faults: []Fault{
			{Stage: StageMap, AllK: true, Err: transient, Rate: 0.5},
			{Stage: StageMap, AllK: true, Err: hard},
		},
	}
	sawHard := false
	for i := 0; i < 100 && !sawHard; i++ {
		_, err := Run(context.Background(), StageMap, 0, 0, h, func(context.Context) (int, error) { return 1, nil })
		if err == nil {
			t.Fatal("both faults skipped")
		}
		if errors.Is(err, hard) {
			sawHard = true
		}
	}
	if !sawHard {
		t.Error("spared Rate fault never fell through to the hard fault")
	}
}

func TestFaultsInjectedCounter(t *testing.T) {
	injected := errors.New("counted")
	h := &Hooks{Faults: []Fault{{Stage: StageRoute, AllK: true, Err: injected}}}
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	for i := 0; i < 3; i++ {
		if _, err := Run(ctx, StageRoute, 0, 0, h, func(context.Context) (int, error) { return 1, nil }); !errors.Is(err, injected) {
			t.Fatal(err)
		}
	}
	// A run with no matching fault must not count.
	if _, err := Run(ctx, StageMap, 0, 0, h, func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Counters[InjectedCounter]; got != 3 {
		t.Errorf("%s = %d, want 3", InjectedCounter, got)
	}
}

func TestNilHooksAndAsStageMisses(t *testing.T) {
	var h *Hooks
	if err := h.fire(context.Background(), StageMap, 0); err != nil {
		t.Fatal(err)
	}
	if AsStage(errors.New("plain")) != nil {
		t.Error("AsStage invented a StageError")
	}
	if AsStage(nil) != nil {
		t.Error("AsStage(nil) != nil")
	}
}

// TestStageOfInvertsSpanName: StageOf returns the stage SpanName
// encoded, and refuses a span that names no stage.
func TestStageOfInvertsSpanName(t *testing.T) {
	for _, st := range []Stage{StagePrepare, StageMap, StageVerify, StagePlace, StageRoute} {
		if got, ok := StageOf(SpanName(st)); !ok || got != st {
			t.Errorf("StageOf(%q) = %q, %v; want %q, true", SpanName(st), got, ok, st)
		}
	}
	for _, span := range []string{"stage.", "map.cover_only", "stage", ""} {
		if got, ok := StageOf(span); ok {
			t.Errorf("StageOf(%q) = %q, true; want false", span, got)
		}
	}
}
