// Package par is the repository's parallel-execution substrate: a
// bounded worker pool with ordered fan-out/fan-in, built on the
// standard library only.
//
// The synthesis pipeline has three independent sources of parallelism
// — the K ladder of the flow (each congestion factor is an independent
// map/place/route run over a read-only prepared placement), the
// partition forest of the coverer (each tree is an independent
// dynamic program), and the two-pin segment batches of the router —
// and all three need the same discipline:
//
//   - bounded concurrency (Workers caps the goroutines, 0 means
//     runtime.GOMAXPROCS);
//   - deterministic reduction (results are collected by task index, so
//     the output is byte-identical no matter how the scheduler
//     interleaves the workers);
//   - context awareness (a canceled ctx stops dispatching new tasks;
//     in-flight tasks observe it through their own cooperative
//     checks);
//   - error discipline (the reported error is the one from the
//     lowest-indexed failing task — the same error a serial loop would
//     have returned first).
//
// Tasks are dispatched in ascending index order. That ordering is what
// makes speculative sweeps (flow.Run's StopAtFirstRoutable) sensible:
// lower-K iterations, which the methodology prefers, are started
// first, and higher-K work is the part that gets canceled.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count setting: values <= 0 mean
// runtime.GOMAXPROCS(0); anything else is returned unchanged. The
// whole repository shares this convention (0 = all cores, 1 = serial).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (normalized through Workers). Tasks are dispatched in
// ascending index order. When a task fails or ctx is canceled, no new
// tasks are dispatched; tasks already running finish (they are
// expected to watch ctx themselves). The returned error is the
// lowest-indexed task error, or the ctx error when cancellation struck
// before any task failed — exactly what the equivalent serial loop
// would have returned.
//
// workers == 1 runs the plain serial loop on the calling goroutine: no
// goroutines, no channels, bit-for-bit the traditional path.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu       sync.Mutex
		next     int
		firstIdx = n // lowest failing index seen
		firstErr error
		stopped  bool
	)
	// claim hands out the next index, or -1 when dispatch must stop.
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		if i < firstIdx {
			firstIdx = i
			firstErr = err
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					fail(n, err) // ctx error ranks below any task error
					return
				}
				i := claim()
				if i < 0 {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstIdx < n {
		return firstErr
	}
	if stopped {
		// Only cancellation stopped dispatch; surface the ctx error.
		if err := ctx.Err(); err != nil {
			return err
		}
		return firstErr
	}
	return nil
}
