// Package tensor implements dense float64 tensors with the operations the
// AIBench training substrate needs: element-wise arithmetic, matrix
// multiplication, 2-D convolution (forward and backward, as chunked
// im2col-GEMMs that never build the column matrix) and pooling,
// reductions, and deterministic random initialization.
//
// Tensors use a flat row-major (C-order) backing slice. Shapes are
// immutable after construction except through Reshape, which shares the
// backing data. All operations allocate fresh result tensors unless the
// name carries an InPlace suffix; what the GEBP engine needs besides the
// result — pack panels, convolution chunk scratch — it borrows from a
// package-private free list (scratch.go) and returns before the
// operation does, so no returned tensor ever shares memory with it.
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
}

// New creates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return shaped(make([]float64, n), shape)
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; its length must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return shaped(data, shape)
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

// Arange creates a 1-D tensor [start, start+1, ..., stop-1].
func Arange(start, stop int) *Tensor {
	if stop < start {
		panic(fmt.Sprintf("tensor: invalid range [%d,%d)", start, stop))
	}
	t := New(stop - start)
	for i := range t.Data {
		t.Data[i] = float64(start + i)
	}
	return t
}

// shaped builds a tensor over data with a private copy of shape and its
// row-major strides. Both live in one backing array — a tensor costs one
// bookkeeping allocation, not two — with shape's capacity clipped so an
// append to it can never reach the strides.
func shaped(data []float64, shape []int) *Tensor {
	meta := make([]int, 2*len(shape))
	copy(meta, shape)
	return fromMeta(data, meta)
}

// fromMeta finishes a tensor whose shape already sits in the first half
// of meta by writing the strides into the second half.
func fromMeta(data []float64, meta []int) *Tensor {
	r := len(meta) / 2
	acc := 1
	for i := r - 1; i >= 0; i-- {
		meta[r+i] = acc
		acc *= meta[i]
	}
	return &Tensor{shape: meta[:r:r], strides: meta[r:], Data: data}
}

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

// offset computes the flat index for the given multi-index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, j := range idx {
		if j < 0 || j >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off += j * t.strides[i]
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor with the new shape sharing t's data. One
// dimension may be -1 to infer the size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	meta := make([]int, 2*len(shape))
	copy(meta, shape)
	shape = meta[:len(shape)]
	infer := -1
	n := 1
	for i, d := range shape {
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
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	return fromMeta(t.Data, meta)
}

// Flatten returns a 1-D view of t sharing its data.
func (t *Tensor) Flatten() *Tensor { return t.Reshape(len(t.Data)) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies u's data into t. Shapes must match in volume.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, u.shape))
	}
	copy(t.Data, u.Data)
}

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

// Row returns row i of a 2-D tensor as a shared-data 1-D view.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	return FromSlice(t.Data[i*cols:(i+1)*cols], cols)
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
	out := New(append([]int{hi - lo}, t.shape[1:]...)...)
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
	out := New(append([]int{total}, rest...)...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}
