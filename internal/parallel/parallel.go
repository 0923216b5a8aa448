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
// can abort long runs cleanly with a context. A call that forks costs
// the heap one object for the state it shares with its workers (fork)
// and one closure per extra worker; a serial call costs nothing.
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
	done := ctx.Done()
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
		for i := 0; i < n && !cancelled(done); i++ {
			fn(i)
		}
		return
	}
	c := &fork{fn: fn, n: n, done: done}
	c.wg.Add(extra)
	for w := 0; w < extra; w++ {
		go c.work()
	}
	func() { // the caller drains too; capture so workers still join
		defer c.capture()
		c.drain()
	}()
	c.wg.Wait()
	if c.panicked != nil {
		panic(c.panicked)
	}
}

// cancelled reports whether done, a context's Done channel, is closed;
// a nil channel never is.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// fork is the state a forking ForCtx call shares with its workers, in
// one heap object.
type fork struct {
	fn   func(i int)
	n    int
	done <-chan struct{}
	// next is the next unclaimed index; stop is set by the first panic.
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	panicMu  sync.Mutex
	panicked any
}

// halted reports whether no new index may be claimed.
func (c *fork) halted() bool { return c.stop.Load() || cancelled(c.done) }

// capture, deferred, records the first panic of a drain and stops the
// claiming.
func (c *fork) capture() {
	if r := recover(); r != nil {
		c.stop.Store(true)
		c.panicMu.Lock()
		if c.panicked == nil {
			c.panicked = r
		}
		c.panicMu.Unlock()
	}
}

// drain runs fn over claimed indices until they run out or the call
// halts.
func (c *fork) drain() {
	for !c.halted() {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		c.fn(i)
	}
}

// work is an extra worker: it drains, then hands back its budget token
// and joins.
func (c *fork) work() {
	defer c.wg.Done()
	defer release()
	defer c.capture()
	c.drain()
}
