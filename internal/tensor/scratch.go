package tensor

import (
	"math/bits"
	"sync"
)

// Every transient buffer of the GEBP engine — pack panels, the conv
// passes' padded image copies, index tables and product scratch — is
// borrowed from these free lists and handed back before the op
// returns, so in steady state an op allocates its result and nothing
// else. Buffers come in power-of-two size classes; a borrower gets the
// first len it asked for of a buffer whose previous contents are
// whatever the last borrower left there, so every lane, tap and tail
// row the arithmetic reads must be written first — zeros included.
//
// The lists are plain mutex-guarded stacks rather than a sync.Pool: the
// collector empties a sync.Pool, which would make the bytes a job
// allocates depend on where its GC cycles happen to fall. These only
// ever grow to the peak number of buffers borrowed at once, so after
// warm-up the allocation counts of an op are fixed.
//
// This is deliberately not the step Arena. An arena has one owner and
// no lock: only the goroutine that runs a benchmark's steps may
// allocate from it. Engine scratch is borrowed by pool workers, several
// at once, from inside parallel sections, and returned before the op
// ends rather than at the end of a step. Nor is it run-scoped state
// waiting for a run to own it: a buffer carries nothing from one
// borrower to the next that either may read — dirty by contract, and
// TestScratchPoolDirtyBuffers hands them out NaN-poisoned — so no run
// can see another through it. It is a process allocator like the Go
// heap beneath it, and per-worker run-owned scratch would add a
// mechanism that changes nothing a run can observe. Revisit only if the
// class mutexes show up as contention (parallel.* or
// tensor.kernel_time_share on the benchmark ladder).

// scratchMinBits is the smallest class, 64 elements: below that a
// class per power of two would only multiply lists.
const scratchMinBits = 6

// freeList is one free list per size class of a buffer element type.
type freeList[T any] [bits.UintSize - scratchMinBits]struct {
	mu   sync.Mutex
	bufs [][]T
}

var (
	// scratchFree holds the float buffers: panels, padded images,
	// product scratch.
	scratchFree freeList[float64]
	// indexFree holds the conv passes' index tables (idxTable).
	indexFree freeList[int]
)

// get borrows a dirty buffer of length n.
func (l *freeList[T]) get(n int) []T {
	class := 0
	if n > 1<<scratchMinBits {
		class = bits.Len(uint(n-1)) - scratchMinBits
	}
	f := &l[class]
	f.mu.Lock()
	if last := len(f.bufs) - 1; last >= 0 {
		buf := f.bufs[last]
		f.bufs = f.bufs[:last]
		f.mu.Unlock()
		return buf[:n]
	}
	f.mu.Unlock()
	return make([]T, n, 1<<(class+scratchMinBits))
}

// put returns a buffer obtained from get. The caller must not touch it
// afterwards.
func (l *freeList[T]) put(buf []T) {
	f := &l[bits.Len(uint(cap(buf)-1))-scratchMinBits]
	f.mu.Lock()
	f.bufs = append(f.bufs, buf)
	f.mu.Unlock()
}

// getScratch borrows a dirty float buffer of length n.
func getScratch(n int) []float64 { return scratchFree.get(n) }

// putScratch returns a buffer obtained from getScratch. The caller must
// not touch it afterwards, and must never let it back a returned Tensor.
func putScratch(buf []float64) { scratchFree.put(buf) }
