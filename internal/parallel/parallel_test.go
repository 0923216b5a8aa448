package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversEveryIndexOnce holds at every width, including the
// non-positive ones that default to GOMAXPROCS.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 8, 64} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		For(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	ran := 0
	For(4, 0, func(int) { ran++ })
	if ran != 0 {
		t.Fatalf("For(n=0) ran %d times", ran)
	}
	For(4, 1, func(i int) { ran += i + 1 })
	if ran != 1 {
		t.Fatalf("For(n=1) ran fn(%d)", ran)
	}
}

// TestForOneWorkerRunsInOrder: width 1 is a plain loop on the calling
// goroutine — what the plan-order run kinds rely on.
func TestForOneWorkerRunsInOrder(t *testing.T) {
	var order []int
	For(1, 257, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	if len(order) != 257 {
		t.Fatalf("ran %d of 257 indices", len(order))
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	For(4, 8, func(i int) {
		For(4, 8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested For ran %d inner iterations, want 64", total.Load())
	}
}

// TestForSharesGlobalWorkerBudget asserts the process-wide cap: no
// matter how wide the requested pool, concurrently-active bodies never
// exceed the caller plus the extra workers the pool was sized with at
// package load (GOMAXPROCS then, which `go test -cpu` may since have
// changed).
func TestForSharesGlobalWorkerBudget(t *testing.T) {
	bound := int32(cap(extraTokens) + 1)
	var active, peak atomic.Int32
	For(64, 256, func(i int) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		active.Add(-1)
	})
	if got := peak.Load(); got > bound {
		t.Fatalf("peak concurrency %d exceeds budget %d", got, bound)
	}
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	For(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("For returned instead of panicking")
}

// TestForStopsClaimingAfterPanic is the fail-fast contract: once a
// body panics, workers stop claiming new indices instead of draining
// the whole range. Non-panicking bodies sleep so in-flight work can't
// race through the range before the panic lands.
func TestForStopsClaimingAfterPanic(t *testing.T) {
	const n = 512
	var ran atomic.Int32
	func() {
		defer func() { recover() }()
		For(4, n, func(i int) {
			if i == 0 {
				panic("die")
			}
			time.Sleep(time.Millisecond)
			ran.Add(1)
		})
	}()
	// At most the in-flight indices (one per worker, minus the
	// panicking one) plus a small scheduling margin may complete.
	if got := ran.Load(); got > 32 {
		t.Fatalf("%d of %d indices ran after the panic; fail-fast did not engage", got, n)
	}
}

// TestForCtxCancelStopsClaiming cancels mid-run and checks no new
// index is claimed afterwards (in-flight ones finish normally).
func TestForCtxCancelStopsClaiming(t *testing.T) {
	const n = 512
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	ForCtx(ctx, 4, n, func(i int) {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if got := ran.Load(); got > 32 {
		t.Fatalf("%d of %d indices ran after cancellation", got, n)
	}
}

// TestForCtxPreCancelledRunsNothing: a dead context claims no index at
// all, including on the serial path.
func TestForCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := int32(0)
		ForCtx(ctx, workers, 100, func(i int) { atomic.AddInt32(&ran, 1) })
		if ran != 0 {
			t.Fatalf("workers=%d: %d indices ran under a pre-cancelled context", workers, ran)
		}
	}
}

// TestForkingCallAllocs pins what a call costs the heap: nothing,
// serial or forking. A forking call borrows its state from the free
// list and hands its work to the standing workers.
func TestForkingCallAllocs(t *testing.T) {
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := testing.AllocsPerRun(100, func() { ForCtx(ctx, 1, 64, fn) }); got != 0 {
		t.Errorf("a serial call makes %v mallocs, want 0", got)
	}
	// Nothing else in this test holds the worker budget, so every call
	// forks one extra worker.
	if got := testing.AllocsPerRun(100, func() { ForCtx(ctx, 2, 64, fn) }); got != 0 {
		t.Errorf("a two-worker call makes %v mallocs, want 0", got)
	}
}

// freeForks is how many fork states wait on the free list.
func freeForks() int {
	forks.mu.Lock()
	defer forks.mu.Unlock()
	return len(forks.free)
}

// TestPanickingForkReturnsItsState: a fork whose body panics still
// hands its state back to the free list and its tokens back to the
// budget, and the pool forks as before afterwards.
func TestPanickingForkReturnsItsState(t *testing.T) {
	if cap(extraTokens) == 0 {
		t.Skip("no extra-worker budget: nothing forks")
	}
	For(2, 64, func(int) {}) // at least one fork state on the list
	before := freeForks()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want \"boom\"", r)
			}
		}()
		For(2, 64, func(i int) {
			if i == 5 {
				panic("boom")
			}
		})
	}()
	if after := freeForks(); after != before {
		t.Errorf("free fork states went from %d to %d across a panicking fork", before, after)
	}
	if held := len(extraTokens); held != 0 {
		t.Errorf("%d budget tokens still held after a panicking fork", held)
	}
	var ran atomic.Int32
	For(2, 1000, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 1000 {
		t.Errorf("after a panicking fork, a fork ran %d of 1000 indices", got)
	}
	if got := testing.AllocsPerRun(100, func() { For(2, 64, func(int) {}) }); got != 0 {
		t.Errorf("after a panicking fork, a fork makes %v mallocs, want 0", got)
	}
}

// TestForksStartNoGoroutines: the workers stand from package load, so
// while a thousand forks run, nested ones included, the goroutine count
// never rises above what it was before them.
func TestForksStartNoGoroutines(t *testing.T) {
	For(2, 8, func(int) {})
	baseline := int64(runtime.NumGoroutine())
	var peak, ran atomic.Int64
	body := func(int) {
		ran.Add(1)
		for n := int64(runtime.NumGoroutine()); ; {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	for range 1000 {
		For(2, 8, body)
	}
	For(4, 8, func(int) { For(4, 8, body) })
	if got := peak.Load(); got > baseline {
		t.Errorf("forks ran beside %d goroutines, %d before them", got, baseline)
	}
	if got := ran.Load(); got != 8*1000+64 {
		t.Errorf("ran %d indices, want %d", got, 8*1000+64)
	}
}

// TestGoexitInABodyKeepsThePool: a body that ends its goroutine
// (runtime.Goexit, as t.FailNow does) on a worker ends that worker
// after it has joined its fork, and a replacement takes its place, so
// the pool still forks and its goroutine count returns to where it was.
func TestGoexitInABodyKeepsThePool(t *testing.T) {
	if cap(extraTokens) == 0 {
		t.Skip("no extra-worker budget: nothing forks")
	}
	For(2, 64, func(int) {})
	baseline := runtime.NumGoroutine()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		For(2, 64, func(int) { runtime.Goexit() })
	}()
	<-exited
	var ran atomic.Int32
	For(2, 1000, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 1000 {
		t.Errorf("after a body's Goexit, a fork ran %d of 1000 indices", got)
	}
	// The worker that exits may still be draining the first fork here.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != baseline || len(extraTokens) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d (want %d), %d budget tokens held (want 0)", runtime.NumGoroutine(), baseline, len(extraTokens))
		}
		runtime.Gosched()
	}
}
