// Package parallel implements the bounded fork-join worker pool the
// suite uses to execute benchmarks and split tensor-kernel loops across
// CPU cores. The pool is a fixed set of long-lived workers, one per
// unit of the extra-worker budget, started when the package loads. A
// call that forks hands its state to that many of them over a channel,
// drains an atomic index counter with the calling goroutine
// participating, and joins before returning, so nested use (a pooled
// suite run whose sessions call pooled matmuls) cannot deadlock. The
// state a forking call shares with its workers is borrowed from a free
// list and handed back when it joins, and a kernel's loop body is a
// Task borrowed the same way (see FreeList), so once warm a fork asks
// the heap for nothing.
//
// Nested levels share one process-wide budget of GOMAXPROCS extra
// workers, acquired non-blockingly: when the suite pool already has a
// session per core, the matmuls inside run serially instead of forking
// another GOMAXPROCS workers each, and when only one session runs,
// its kernels pick up the whole budget. Total compute goroutines stay
// ~GOMAXPROCS regardless of how calls nest, without any configuration
// threading.
//
// Work is handed out one index at a time, so uneven per-index cost
// (e.g. benchmarks whose epochs differ by 100x) still balances across
// workers. Panics inside a body are captured and re-raised on the
// caller's goroutine, preserving the tensor package's
// panic-on-shape-error contract.
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

// queue carries a forking call's state to the workers, once per extra
// worker the call acquired. Every fork in the queue or in a worker's
// hands holds a budget token, so there are never more of them than
// workers: a send never blocks, and a queued fork always finds an idle
// worker.
var queue = make(chan *fork, cap(extraTokens))

// The workers start with the package, not with the first fork, so a
// process's goroutine count does not move when its kernels first fork.
func init() {
	for range cap(extraTokens) {
		go worker()
	}
}

// worker runs the forks it is handed, for the life of the process. A
// body that ends its goroutine (runtime.Goexit) ends the worker after
// the fork's bookkeeping has run, so a replacement takes its place.
func worker() {
	defer func() { go worker() }()
	for c := range queue {
		c.work()
	}
}

// Task is a loop body: Run(i) does index i's work. A kernel hands the
// pool a small struct borrowed from a FreeList rather than a closure,
// which would be a heap object per call.
type Task interface{ Run(i int) }

// Func adapts a plain function to Task. A func value converts to an
// interface without an allocation, so For and ForCtx cost what their
// caller's closure costs.
type Func func(i int)

// Run implements Task.
func (f Func) Run(i int) { f(i) }

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
	run(context.Background(), workers, n, Func(fn))
}

// ForTask is For over a Task, as wide as GOMAXPROCS allows: the form
// kernels use, since a task borrowed from a FreeList makes a fork cost
// the heap nothing.
func ForTask(n int, t Task) {
	run(context.Background(), 0, n, t)
}

// ForCtx is For with early stopping: no new index is claimed once ctx
// is cancelled or once any invocation of fn panics (the first panic is
// re-raised on the caller's goroutine after the in-flight indices
// finish). A suite run whose session dies therefore stops launching
// new sessions instead of draining the whole work list, and callers
// can abort long runs cleanly with a context.
func ForCtx(ctx context.Context, workers, n int, fn func(i int)) {
	run(ctx, workers, n, Func(fn))
}

// run is the one fork path behind For, ForTask and ForCtx. A call that
// forks borrows its shared state from forks and hands it back when it
// joins, panicking or not, so neither path allocates once the free
// list holds as many forks as calls ever overlapped.
func run(ctx context.Context, workers, n int, t Task) {
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
			t.Run(i)
		}
		return
	}
	c := forks.Get()
	c.task, c.n, c.done = t, n, done
	c.wg.Add(extra)
	for w := 0; w < extra; w++ {
		queue <- c
	}
	func() { // the caller drains too; capture so workers still join
		defer c.capture()
		c.drain()
	}()
	c.wg.Wait()
	panicked := c.panicked
	*c = fork{}
	forks.Put(c)
	if panicked != nil {
		panic(panicked)
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

// fork is the state a forking call shares with its workers.
type fork struct {
	task Task
	n    int
	done <-chan struct{}
	// next is the next unclaimed index; stop is set by the first panic.
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	panicMu  sync.Mutex
	panicked any
}

// forks holds the fork state of calls that have joined.
var forks FreeList[fork]

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

// drain runs the task over claimed indices until they run out or the
// call halts.
func (c *fork) drain() {
	for !c.halted() {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		c.task.Run(i)
	}
}

// work is one worker's share of a fork: it drains, then hands back its
// budget token and joins. Done comes last: once it returns, the caller
// may hand c to another call.
func (c *fork) work() {
	defer c.wg.Done()
	defer release()
	defer c.capture()
	c.drain()
}

// FreeList is a mutex-guarded stack of reusable *T: what a fork's state
// and a kernel's task structs are borrowed from, so that a warmed fork
// allocates nothing. It is not a sync.Pool, which the collector
// empties: with one, how many objects a job allocates would depend on
// where its GC cycles fall. A list only grows to the peak number of
// values borrowed at once. The zero value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get borrows a zeroed *T.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if last := len(l.free) - 1; last >= 0 {
		x := l.free[last]
		l.free = l.free[:last]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put returns x to the list. The caller zeroes it first, so it keeps
// nothing it pointed at alive, with a literal of its concrete type:
// zeroing a T here would take a temporary, and on a 32-bit platform a
// T holding a 64-bit atomic (a fork's WaitGroup) needs an alignment
// the stack does not give, so the temporary would be a heap object.
// The caller must not touch x afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
