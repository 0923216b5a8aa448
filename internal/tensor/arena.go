package tensor

import (
	"math"
	"sync/atomic"
)

// Arena is the step allocator: a bump allocator over retained slabs
// that hands out step-scoped tensors — data, shape and strides, and the
// Tensor struct itself — without touching the Go heap once its slabs
// have grown to one step's footprint.
//
// Placement travels with the operands, the way a framework tensor
// carries its device, and it means three things: where results are
// allocated, which kernels compute them and which run's counters count
// them. A Tensor records the arena it is placed in (nil: the Go heap,
// the process default kernels, no counters); every op that allocates
// its result allocates it where its operands are placed (ArenaOf) and
// every kernel entry point dispatches under the Run recorded there
// (RunOf), so everything computed from an adopted tensor is
// arena-backed, runs on the owning run's kernels and shows up in the
// owning run's trace, and everything computed from plain heap tensors
// stays on the heap, on the process default, and in no trace.
// Constructors that take no operand — New, Full, Ones, FromSlice,
// Rand… — always build on the heap.
//
// Ownership: one benchmark instance owns one arena, adopts its
// parameters into it at construction (Adopt marks placement; the
// parameter's own storage stays where it is) and calls Reset once per
// optimizer step; the run that builds the instance calls SetRun before
// the first step. Only the owner's goroutine may allocate from
// or reset an arena — there is no lock. Pool workers inside a parallel
// kernel section write into results the owner allocated before the
// fork; they never allocate.
//
// Lifetime: Reset rewinds the arena. Every tensor handed out since the
// previous Reset — and every view of one — is dead from then on: its
// memory will be handed out again. A value that must outlive its step
// (a replay-buffer entry, carried recurrent state) is copied out with
// Detach first. Never arena-backed: parameter storage, leaf gradients,
// optimizer state, running statistics, a dataset generator's state and
// the evaluation sets built with the instance. A step's dataset draws
// are arena-backed: internal/data draws its tensors from the arena it is
// given, and a sharded grain reads its rows of them as a view.
//
// The graph nodes that hold a step's tensors die with them, so an arena
// also carries one slot of graph state (SetGraph): autograd keeps its
// node slab there, and Reset rewinds it together with the tensor slabs.
//
// Growth is deterministic: slabs double, are never freed and never
// depend on the collector, so after the first step of a fixed-shape
// loop an arena allocates nothing and the allocation counts of a run
// repeat exactly. The zero Arena is ready to use and holds no memory
// until its first allocation; a nil *Arena is the heap.
type Arena struct {
	// run is the run that owns the instance; nil means the process
	// default.
	run     *Run
	floats  slabs[float64]
	ints    slabs[int]
	tensors slabs[Tensor]
	// graph is the step-scoped state of the graphs built on a's
	// tensors (autograd's node slab); nil until the first one.
	graph Rewinder
}

// Rewinder is step-scoped state kept beside an arena's slabs. Rewind
// ends a step for it: whatever it handed out since the last Rewind is
// dead, exactly like the arena's tensors.
type Rewinder interface{ Rewind() }

// Graph returns the graph state recorded on a, nil before SetGraph.
func (a *Arena) Graph() Rewinder { return a.graph }

// SetGraph records g as a's graph state: Reset rewinds it with the
// slabs, and the never-reuse mode drops it with them.
func (a *Arena) SetGraph(g Rewinder) { a.graph = g }

// First-slab sizes, in elements. Small on purpose: the suite's smallest
// steps fit the first float slab (64 KB), so their whole working set
// stays cache-resident, and larger ones get there in a few doublings.
const (
	arenaFloats  = 1 << 13
	arenaInts    = 1 << 10
	arenaTensors = 1 << 8
)

// slabs is one element type's slab list with its bump position:
// slabs before cur are spent, slab cur is used up to off.
type slabs[T any] struct {
	list     [][]T
	cur, off int
}

// take hands out the next n elements, contents unspecified. A request
// that does not fit the current slab moves on to the next one that
// holds it, growing the list with a slab at least twice the last when
// none does — the skipped tail is the price of never moving memory.
func (s *slabs[T]) take(n, first int) []T {
	for ; s.cur < len(s.list); s.cur, s.off = s.cur+1, 0 {
		if slab := s.list[s.cur]; n <= len(slab)-s.off {
			out := slab[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
	}
	size := first
	if last := len(s.list) - 1; last >= 0 {
		size = 2 * len(s.list[last])
	}
	s.list = append(s.list, make([]T, max(size, n)))
	s.off = n
	return s.list[s.cur][:n:n]
}

// rewind makes every slab available again, first handing the used
// region of each to wipe when one is given.
func (s *slabs[T]) rewind(wipe func([]T)) {
	if wipe != nil {
		for i := 0; i <= s.cur && i < len(s.list); i++ {
			used := s.list[i]
			if i == s.cur {
				used = used[:s.off]
			}
			wipe(used)
		}
	}
	s.cur, s.off = 0, 0
}

// New returns a zero-filled tensor of the given shape placed in a; on
// a nil arena it is the heap constructor New. The zero fill is for a
// result the op accumulates into (+= over a reduction, a gradient
// buffer, a scatter that leaves elements untouched); a result the op
// writes in full before reading any of it comes from Take.
func (a *Arena) New(shape ...int) *Tensor {
	t := a.Take(shape...)
	if a != nil {
		clear(t.Data)
	}
	return t
}

// Take returns a tensor of the given shape placed in a with its
// contents unspecified: whatever the slab held last step, NaN under
// ResetPoison. It is right only for an op that writes every element of
// its result before anything reads one (an element-wise output, a
// normalized copy), and saves New's zero fill there. On a nil arena it
// is the heap constructor New, which zero-fills anyway.
func (a *Arena) Take(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	return a.shaped(a.floats.take(volume(shape), arenaFloats), shape)
}

// shaped is the package's one way to finish a tensor: data under a
// private copy of shape and its row-major strides, placed in a. On the
// heap (nil a) shape and strides share one backing array — a tensor
// costs one bookkeeping allocation, not two — with shape's capacity
// clipped so an append to it can never reach the strides; in an arena
// all three pieces come from its slabs.
func (a *Arena) shaped(data []float64, shape []int) *Tensor {
	r := len(shape)
	var meta []int
	var t *Tensor
	if a == nil {
		meta, t = make([]int, 2*r), new(Tensor)
	} else {
		meta, t = a.ints.take(2*r, arenaInts), &a.tensors.take(1, arenaTensors)[0]
	}
	copy(meta, shape)
	acc := 1
	for i := r - 1; i >= 0; i-- {
		meta[r+i] = acc
		acc *= meta[i]
	}
	// Field by field, not *t = Tensor{…}: a struct store into a heap
	// slab is a typed copy with a bulk write barrier. Rewind leaves the
	// slab as it was, so every field is assigned.
	t.shape, t.strides, t.Data, t.arena, t.stepped = meta[:r:r], meta[r:], data, a, a != nil
	return t
}

// Adopt places the given heap tensors in a: their storage stays where
// it is, but from now on results computed from them are allocated from
// a. A benchmark adopts its parameters; nothing else needs adopting,
// because everything a step computes descends from one.
func (a *Arena) Adopt(ts ...*Tensor) {
	for _, t := range ts {
		t.arena = a
	}
}

// Reset ends a step: every tensor allocated from a since the previous
// Reset is dead and its memory is handed out again, and the graph
// state rewinds with it. Nothing is freed. A nil arena has nothing to
// reset.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	switch ArenaResetMode(arenaResetMode.Load()) {
	case ResetNever:
		// Forget the slabs and the graph state instead of rewinding
		// them: nothing is ever handed out twice, which is what the
		// heap would have done.
		*a = Arena{run: a.run}
		return
	case ResetPoison:
		a.floats.rewind(func(used []float64) {
			for i := range used {
				used[i] = math.NaN()
			}
		})
		a.ints.rewind(func(used []int) {
			for i := range used {
				used[i] = math.MinInt
			}
		})
		a.tensors.rewind(func(used []Tensor) { clear(used) })
	default:
		a.floats.rewind(nil)
		a.ints.rewind(nil)
		a.tensors.rewind(nil)
	}
	if a.graph != nil {
		a.graph.Rewind()
	}
}

// ArenaOf returns the placement of an op's result: the arena of the
// first operand that has one, nil (the heap) when none has. An instance
// has one arena and its tensors meet no other's, so which placed
// operand wins is immaterial.
func ArenaOf(ts ...*Tensor) *Arena {
	for _, t := range ts {
		if t.arena != nil {
			return t.arena
		}
	}
	return nil
}

// StepArenaOf returns the arena that handed t out, nil for a heap
// tensor and for an adopted one: t dies at that arena's next Reset, so
// whatever holds t for the step (a graph leaf over it) may come from the
// arena too. Placement alone (ArenaOf) does not say as much: a
// parameter is placed in its instance's arena but outlives every step.
func StepArenaOf(t *Tensor) *Arena {
	if t.stepped {
		return t.arena
	}
	return nil
}

// SetRun records r as the run a's tensors are placed under: every op
// on them dispatches to r's kernels and counts into r's counters. The
// run that builds a benchmark instance calls it once, before the
// instance's first step. A nil arena — a heap-only workload — stays on
// the process default.
func (a *Arena) SetRun(r *Run) {
	if a != nil {
		a.run = r
	}
}

// unplaced counts the lookups that fell through to the process
// default. Monotone, never reset: read it as a before/after delta.
var unplaced atomic.Int64

// UnplacedDispatches returns how many kernel calls so far reached no
// operand placed under a run — a product of two heap constants, a
// network left out of Module(). Zero across a benchmark's step is what
// makes "a run sees exactly its own calls" true.
func UnplacedDispatches() int64 { return unplaced.Load() }

// RunOf returns the run an op on the given operands dispatches under:
// that of the first placed operand (ArenaOf), else — or when its arena
// records none — the process default.
func RunOf(ts ...*Tensor) *Run {
	if a := ArenaOf(ts...); a != nil && a.run != nil {
		return a.run
	}
	unplaced.Add(1)
	return processRun
}

// NewLike returns a zero-filled tensor with t's shape and placement
// (Arena.New): the buffer for an accumulation. A result written in full
// takes t's arena's Take instead.
func NewLike(t *Tensor) *Tensor { return t.arena.New(t.shape...) }

// Detach returns a deep copy of t on the heap with no placement. No
// model needs one; tests use it to build heap operands beside arena
// ones.
func (t *Tensor) Detach() *Tensor {
	//lint:allow heapalloc leaving the arena is what Detach is for
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// ArenaResetMode is what Reset does with the memory it rewinds; see
// SetArenaResetMode.
type ArenaResetMode int32

const (
	// ResetRewind is the production behaviour: rewind, touch nothing.
	ResetRewind ArenaResetMode = iota
	// ResetPoison also overwrites the rewound floats with NaN and
	// zeroes the rewound Tensor structs, so any use of a tensor past
	// its step shows up in the numbers or panics.
	ResetPoison
	// ResetNever drops the slabs instead of reusing them: the
	// reference run for ResetPoison, in which stale tensors stay
	// intact exactly as heap tensors would.
	ResetNever
)

var arenaResetMode atomic.Int32

// SetArenaResetMode is a hook for the escape-safety tests and nothing
// else: it switches every arena in the process to the given mode and
// returns the previous one. Results must be bitwise equal under all
// three modes; a difference means a tensor outlived its step.
func SetArenaResetMode(m ArenaResetMode) ArenaResetMode {
	return ArenaResetMode(arenaResetMode.Swap(int32(m)))
}
