// Package parallel implements the bounded fork-join worker pool the
// suite uses to execute benchmarks and split tensor-kernel loops across
// CPU cores. The pool is stateless between calls: every For/ForCtx
// spawns extra goroutines, drains an atomic index counter with the
// calling goroutine participating, and joins before returning, so
// nested use (a pooled suite run whose sessions call pooled matmuls)
// cannot deadlock.
//
// Nested levels share one process-wide budget of GOMAXPROCS extra
// workers, acquired non-blockingly: when the suite pool already has a
// session per core, the matmuls inside run serially instead of forking
// another GOMAXPROCS goroutines each, and when only one session runs,
// its kernels pick up the whole budget. Total compute goroutines stay
// ~GOMAXPROCS regardless of how calls nest, without any configuration
// threading.
//
// Work is handed out one index at a time, so uneven per-index cost
// (e.g. benchmarks whose epochs differ by 100x) still balances across
// workers. Panics inside fn are captured and re-raised on the caller's
// goroutine, preserving the tensor package's panic-on-shape-error
// contract.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"aibench/internal/telemetry"
)

// extraTokens is the process-wide budget of extra workers beyond each
// call's own goroutine. Buffered-channel counting semaphore; acquired
// with a non-blocking send so nested For calls degrade to serial
// rather than deadlock or oversubscribe.
var extraTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

func tryAcquire() bool {
	select {
	case extraTokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func release() { <-extraTokens }

// For runs fn(i) for i in [0, n) across at most workers goroutines
// including the caller (non-positive means GOMAXPROCS; with one worker,
// or n <= 1, a plain serial loop on the calling goroutine), further
// capped by the process-wide extra-worker budget. Indices are claimed
// from a shared atomic counter, so execution order across goroutines is
// nondeterministic; no index runs twice, and on a panic-free run every
// index runs. If an invocation panics, remaining unclaimed indices are
// skipped and the first panic is re-raised on the caller's goroutine
// (see ForCtx).
func For(workers, n int, fn func(i int)) {
	ForCtx(context.Background(), workers, n, fn)
}

// For2D runs fn over the rows×cols grid, flattening the two loops into
// one index space so the pool hands out whole (r,c) tiles and balances
// uneven tile costs the same way For balances rows. Kernel code uses it
// to split a matrix across both row and column blocks instead of only
// the outer row loop, which keeps every core busy even when one
// dimension is short. The same claim/panic/ordering contract as For
// applies; iteration order within one goroutine is row-major.
func For2D(workers, rows, cols int, fn func(r, c int)) {
	if rows <= 0 || cols <= 0 {
		return
	}
	For(workers, rows*cols, func(t int) { fn(t/cols, t%cols) })
}

// ForCtx is For with early stopping: no new index is claimed once ctx
// is cancelled or once any invocation of fn panics (the first panic is
// re-raised on the caller's goroutine after the in-flight indices
// finish). A suite run whose session dies therefore stops launching
// new sessions instead of draining the whole work list, and callers
// can abort long runs cleanly with a context.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var stop atomic.Bool
	done := ctx.Done()
	halted := func() bool {
		if stop.Load() {
			return true
		}
		if done != nil {
			select {
			case <-done:
				return true
			default:
			}
		}
		return false
	}
	extra := 0
	for extra < workers-1 && tryAcquire() {
		extra++
	}
	// Telemetry's wall-clock plane records how well parallel sections
	// fared against the process-wide budget; nil (one atomic load) when
	// no tracer is active.
	if poolDone := telemetry.PoolBegin(workers-1, extra); poolDone != nil {
		defer poolDone()
	}
	if extra == 0 {
		for i := 0; i < n && !halted(); i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	capture := func() {
		if r := recover(); r != nil {
			stop.Store(true)
			panicMu.Lock()
			if panicked == nil {
				panicked = r
			}
			panicMu.Unlock()
		}
	}
	drain := func() {
		for !halted() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			defer release()
			defer capture()
			drain()
		}()
	}
	func() { // the caller drains too; capture so workers still join
		defer capture()
		drain()
	}()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
