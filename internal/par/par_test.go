package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	t.Parallel()
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForEachRunsEveryTaskOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		counts := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	t.Parallel()
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	t.Parallel()
	const workers = 3
	var cur, peak int32
	err := ForEach(context.Background(), workers, 40, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds workers %d", peak, workers)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	t.Parallel()
	// Several tasks fail; the reported error must be the one a serial
	// loop would have hit first (lowest index among failures actually
	// dispatched).
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 20, func(i int) error {
			if i == 3 || i == 5 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Errorf("workers=%d: err = %v, want task 3's error", workers, err)
		}
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	t.Parallel()
	var ran int32
	injected := errors.New("boom")
	err := ForEach(context.Background(), 2, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return injected
		}
		return nil
	})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n > 10 {
		t.Errorf("%d tasks ran after an immediate failure; dispatch did not stop", n)
	}
}

func TestForEachContextCancel(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	var once sync.Once
	err := ForEach(ctx, 2, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n > 100 {
		t.Errorf("%d tasks ran after cancellation", n)
	}
	// Pre-canceled ctx: serial path too.
	if err := ForEach(ctx, 1, 5, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("serial pre-canceled err = %v", err)
	}
}

func TestForEachTaskErrorBeatsCtxError(t *testing.T) {
	t.Parallel()
	// A task failure and a cancellation race: the task error wins when
	// its index is a real task (ctx errors rank below all task errors).
	ctx, cancel := context.WithCancel(context.Background())
	injected := errors.New("task failure")
	err := ForEach(ctx, 2, 50, func(i int) error {
		if i == 0 {
			cancel()
			return injected
		}
		return nil
	})
	if !errors.Is(err, injected) {
		t.Errorf("err = %v, want the task error to win", err)
	}
}

func TestForEachDeterministicReduction(t *testing.T) {
	t.Parallel()
	// The same computation under different worker counts must reduce to
	// identical results.
	run := func(workers int) []int {
		out := make([]int, 64)
		err := ForEach(context.Background(), workers, len(out), func(i int) error {
			out[i] = i*31 + 7
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := run(1), run(4), run(16)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("results differ at %d: %d %d %d", i, a[i], b[i], c[i])
		}
	}
}
