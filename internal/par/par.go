// Package par is the parallel-execution substrate shared by the analysis
// layers: a bounded worker pool with deterministic result placement.
//
// Every helper hands out work by index and writes results to the slot of
// that index, so the output of a parallel run is byte-identical to the
// serial run — parallelism only changes which goroutine computes a slot,
// never the slot's content or order. The hot paths built on top (corpus
// generation, distribution fitting, the filter-window sweep, the
// experiment suite) rely on exactly this property for their
// serial-vs-parallel equivalence guarantees.
//
// Semantics:
//
//   - the worker count is bounded (0 or negative means GOMAXPROCS);
//   - a context cancellation stops the dispatch of new indices and is
//     returned once in-flight work drains;
//   - the first task error cancels the remaining work and is the error
//     returned (later errors are dropped);
//   - a task panic is captured, converted to an error carrying the stack,
//     and propagated like a first error, so one bad task cannot kill the
//     process from a worker goroutine.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values ≤ 0 mean "all
// available parallelism" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// failHook, when set, runs once right after the first task error has
// cancelled the remaining work. Tests use it to hold their other tasks
// until the cancellation has happened.
var failHook func()

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers ≤ 0 means GOMAXPROCS). It returns the first error (or captured
// panic) and cancels the remaining work; on cancellation of ctx it stops
// dispatching and returns ctx's error. ForEach always waits for in-flight
// tasks to finish before returning, so fn never runs after ForEach returns.
//
// Cancellation contract: indices are handed out in increasing order, one
// per worker at a time, and a worker checks for cancellation after it
// takes an index and before it runs it. So once the first error has been
// recorded, no further task starts; only the tasks already running (at
// most one per other worker) finish.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
			if failHook != nil {
				failHook()
			}
		})
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || inner.Err() != nil {
					return
				}
				if err := protect(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map applies fn to every item on at most workers goroutines and returns
// the results in input order. On error (or captured panic) it cancels the
// remaining work and returns nil plus the first error.
func Map[T, R any](ctx context.Context, items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(ctx, len(items), workers, func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// protect runs fn(i), converting a panic into an error that carries the
// panic value and stack trace.
func protect(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}
