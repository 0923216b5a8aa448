// Package tensor implements dense float64 tensors with the operations the
// AIBench training substrate needs: element-wise arithmetic, matrix
// multiplication, 2-D convolution (forward and backward, as chunked
// im2col-GEMMs that never build the column matrix) and pooling,
// reductions, and deterministic random initialization.
//
// Tensors use a flat row-major (C-order) backing slice. Shapes are
// immutable after construction except through Reshape, which shares the
// backing data.
//
// Where a tensor lives is decided by placement, not by the op. The
// constructors that take no operand (New, Full, Ones, FromSlice, Rand…)
// build on the Go heap. Every operation — unless its name carries an
// InPlace suffix — allocates a fresh result where its operands are
// placed: in the step arena of the first operand that has one (see
// Arena, ArenaOf, NewLike), on the heap when none has — and the kernel
// entry points compute it with the kernels, and count it into the
// telemetry counters, of the run that arena records (RunOf): the
// process default and nobody's counters when none does. A benchmark
// instance owns exactly one arena, adopts its parameters into it, and
// resets it once per optimizer step and per evaluation batch from its
// own goroutine — the only one that may allocate from it; pool workers
// inside a parallel kernel section only write into results allocated
// before the fork. So a training step's activations, interior gradients
// and backward temporaries cost no mallocs once the arena's slabs have
// grown to one step's footprint, and are dead after the next Reset;
// what must outlive a step is copied out with Detach. Parameter
// storage, leaf gradients, optimizer state, batch-norm running
// statistics and datasets are never arena-backed.
//
// What the GEBP engine needs besides the result — pack panels,
// convolution chunk scratch — it borrows from a package-private free
// list (scratch.go) and returns before the operation does, so no
// returned tensor ever shares memory with it.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	shape   []int
	strides []int
	Data    []float64
	// arena is the tensor's placement: where results computed from it
	// are allocated and which kernels compute them (nil: the Go heap,
	// the process default kernels). See Arena.
	arena *Arena
	// stepped marks a tensor an arena handed out (the struct itself
	// comes from its slab), which dies at the arena's next Reset; a
	// heap tensor and an adopted one do not (StepArenaOf).
	stepped bool
}

// New creates a zero-filled tensor with the given shape on the heap.
func New(shape ...int) *Tensor {
	return (*Arena)(nil).shaped(make([]float64, volume(shape)), shape)
}

// volume returns the element count of shape. Like every variadic-shape
// entry point it formats a copy of shape when it panics, so the
// caller's slice does not escape and `New(rows, cols)` builds its
// argument on the stack.
func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// FromSlice wraps data in a heap tensor of the given shape. The slice is
// used directly, not copied; its length must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	return (*Arena)(nil).view(data, shape)
}

// view wraps data under shape with placement a.
func (a *Arena) view(data []float64, shape []int) *Tensor {
	n := volume(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), append([]int(nil), shape...), n))
	}
	return a.shaped(data, shape)
}

// Full creates a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones creates a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// offset computes the flat index for the given multi-index. The
// out-of-bounds panic formats a copy of idx: formatting idx itself would
// make the variadic slice of every At and Set call escape to the heap.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, j := range idx {
		if j < 0 || j >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", append([]int(nil), idx...), t.shape))
		}
		off += j * t.strides[i]
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy placed like t.
func (t *Tensor) Clone() *Tensor {
	c := NewLike(t)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor with the new shape sharing t's data (and its
// placement). One dimension may be -1 to infer the size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	var buf [8]int
	dims := append(buf[:0], shape...)
	infer := -1
	n := 1
	for i, d := range dims {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one -1 dimension in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, append([]int(nil), dims...)))
		}
		dims[infer] = len(t.Data) / n
		n *= dims[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), append([]int(nil), dims...), n))
	}
	return t.arena.shaped(t.Data, dims)
}

// withRows allocates a zero tensor of shape [rows, rest...] in a.
func (a *Arena) withRows(rows int, rest []int) *Tensor {
	var buf [8]int
	return a.New(append(append(buf[:0], rows), rest...)...)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g]", t.Data[0], t.Data[1], t.Data[2], t.Data[len(t.Data)-1])
	}
	return b.String()
}

// SliceRows returns rows [lo,hi) of the first dimension as a copy.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: SliceRows requires rank >= 1")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of bounds for dim %d", lo, hi, t.shape[0]))
	}
	rowVol := 1
	for _, d := range t.shape[1:] {
		rowVol *= d
	}
	out := t.arena.withRows(hi-lo, t.shape[1:])
	copy(out.Data, t.Data[lo*rowVol:hi*rowVol])
	return out
}

// Concat concatenates tensors along dimension 0. All trailing dimensions
// must match.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	rest := ts[0].shape[1:]
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(ts[0].shape) {
			panic("tensor: Concat rank mismatch")
		}
		for i, d := range t.shape[1:] {
			if d != rest[i] {
				panic("tensor: Concat trailing shape mismatch")
			}
		}
		total += t.shape[0]
	}
	out := ArenaOf(ts...).withRows(total, rest)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}
