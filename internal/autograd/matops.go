package autograd

import (
	"fmt"

	"aibench/internal/tensor"
)

// MatMul multiplies two 2-D Values.
func MatMul(a, b *Value) *Value {
	out := tensor.MatMul(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = matMulBack
	}
	return node
}

func matMulBack(n *Value, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	// dA = G·Bᵀ, dB = Aᵀ·G
	a.accumGrad(tensor.MatMulT(g, b.Data))
	b.accumGrad(tensor.TMatMul(a.Data, g))
}

// MatMulT multiplies a by the transpose of b: (m×k) · (n×k)ᵀ → (m×n),
// without materializing the transpose. Attention uses it for Q·Kᵀ so
// the score GEMM and both its backward GEMMs stay inside the kernel
// dispatch layer instead of paying a Transpose copy each way.
func MatMulT(a, b *Value) *Value {
	out := tensor.MatMulT(a.Data, b.Data)
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = matMulTBack
	}
	return node
}

func matMulTBack(n *Value, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	// out = A·Bᵀ ⇒ dA = G·B, dB = Gᵀ·A
	a.accumGrad(tensor.MatMul(g, b.Data))
	b.accumGrad(tensor.TMatMul(g, a.Data))
}

// AddRowVector adds bias vector v to every row of 2-D a.
func AddRowVector(a, v *Value) *Value {
	out := tensor.AddRowVector(a.Data, v.Data)
	node := newNode(out, a, v)
	if node.requiresGrad {
		node.back = addRowVectorBack
	}
	return node
}

func addRowVectorBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(g)
	n.parents[1].accumGrad(tensor.SumRows(g))
}

// AddChannelVector adds a per-channel bias to an NCHW Value.
func AddChannelVector(a, v *Value) *Value {
	out := tensor.AddChannelVector(a.Data, v.Data)
	node := newNode(out, a, v)
	if node.requiresGrad {
		node.back = addChannelVectorBack
	}
	return node
}

func addChannelVectorBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(g)
	n.parents[1].accumGrad(tensor.SumChannels(g))
}

// Reshape returns a view of a with a new shape; gradients flow back
// reshaped to a's original shape.
func Reshape(a *Value, shape ...int) *Value {
	out := a.Data.Reshape(shape...)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = reshapeBack
	}
	return node
}

func reshapeBack(n *Value, g *tensor.Tensor) {
	a := n.parents[0]
	a.accumGrad(g.ReshapeLike(a.Data))
}

// Transpose transposes a 2-D Value.
func Transpose(a *Value) *Value {
	out := tensor.Transpose(a.Data)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = transposeBack
	}
	return node
}

func transposeBack(n *Value, g *tensor.Tensor) {
	n.parents[0].accumGrad(tensor.Transpose(g))
}

// arenaOf returns the placement of an op over vs: the arena of the
// first operand that has one.
func arenaOf(vs []*Value) *tensor.Arena {
	for _, v := range vs {
		if ar := tensor.ArenaOf(v.Data); ar != nil {
			return ar
		}
	}
	return nil
}

// Concat concatenates Values along dimension 0.
func Concat(vs ...*Value) *Value {
	ts := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		ts[i] = v.Data
	}
	out := tensor.Concat(ts...)
	node := newNode(out, vs...)
	if node.requiresGrad {
		node.back = concatBack
	}
	return node
}

func concatBack(n *Value, g *tensor.Tensor) {
	off := 0
	for _, v := range n.parents {
		rows := v.Data.Dim(0)
		v.accumGrad(g.SliceRows(off, off+rows))
		off += rows
	}
}

// ConcatCols concatenates 2-D Values along dimension 1 (columns). Used to
// join recurrent hidden states with inputs.
func ConcatCols(vs ...*Value) *Value {
	rows := vs[0].Data.Dim(0)
	total := 0
	for _, v := range vs {
		if v.Data.Rank() != 2 || v.Data.Dim(0) != rows {
			panic(fmt.Sprintf("autograd: ConcatCols shape mismatch %v", v.Data.Shape()))
		}
		total += v.Data.Dim(1)
	}
	ar := arenaOf(vs)
	out := ar.New(rows, total)
	off := 0
	for _, v := range vs {
		c := v.Data.Dim(1)
		for r := 0; r < rows; r++ {
			copy(out.Data[r*total+off:r*total+off+c], v.Data.Data[r*c:(r+1)*c])
		}
		off += c
	}
	node := newNode(out, vs...)
	if node.requiresGrad {
		node.back = concatColsBack
	}
	return node
}

// concatColsBack places each operand's gradient where the output is.
func concatColsBack(n *Value, g *tensor.Tensor) {
	ar := tensor.ArenaOf(n.Data)
	rows, total := n.Data.Dim(0), n.Data.Dim(1)
	off := 0
	for _, v := range n.parents {
		c := v.Data.Dim(1)
		gv := ar.New(rows, c)
		for r := 0; r < rows; r++ {
			copy(gv.Data[r*c:(r+1)*c], g.Data[r*total+off:r*total+off+c])
		}
		v.accumGrad(gv)
		off += c
	}
}

// SliceRows extracts rows [lo,hi) along dimension 0.
func SliceRows(a *Value, lo, hi int) *Value {
	out := a.Data.SliceRows(lo, hi)
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = sliceRowsBack
		node.off = lo
	}
	return node
}

// sliceRowsBack reads lo from the save area; hi follows from the
// output's rows.
func sliceRowsBack(n *Value, g *tensor.Tensor) {
	a := n.parents[0]
	lo := n.off
	hi := lo + n.Data.Dim(0)
	ga := tensor.NewLike(a.Data)
	rowVol := 1
	for d := 1; d < a.Data.Rank(); d++ {
		rowVol *= a.Data.Dim(d)
	}
	copy(ga.Data[lo*rowVol:hi*rowVol], g.Data)
	a.accumGrad(ga)
}

// SliceCols extracts columns [lo,hi) of a 2-D Value.
func SliceCols(a *Value, lo, hi int) *Value {
	if a.Data.Rank() != 2 {
		panic("autograd: SliceCols requires 2-D input")
	}
	rows, cols := a.Data.Dim(0), a.Data.Dim(1)
	if lo < 0 || hi > cols || lo > hi {
		panic(fmt.Sprintf("autograd: SliceCols [%d,%d) out of bounds for %d cols", lo, hi, cols))
	}
	w := hi - lo
	out := tensor.ArenaOf(a.Data).New(rows, w)
	for r := 0; r < rows; r++ {
		copy(out.Data[r*w:(r+1)*w], a.Data.Data[r*cols+lo:r*cols+hi])
	}
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = sliceColsBack
		node.off = lo
	}
	return node
}

// sliceColsBack reads lo from the save area; hi follows from the
// output's columns.
func sliceColsBack(n *Value, g *tensor.Tensor) {
	a := n.parents[0]
	rows, cols := a.Data.Dim(0), a.Data.Dim(1)
	w := n.Data.Dim(1)
	lo, hi := n.off, n.off+w
	ga := tensor.NewLike(a.Data)
	for r := 0; r < rows; r++ {
		copy(ga.Data[r*cols+lo:r*cols+hi], g.Data[r*w:(r+1)*w])
	}
	a.accumGrad(ga)
}

// Gather selects rows of the 2-D weight matrix by index: the embedding
// lookup. Backward scatter-adds into the weight gradient.
func Gather(weight *Value, ids []int) *Value {
	if weight.Data.Rank() != 2 {
		panic("autograd: Gather requires a 2-D weight matrix")
	}
	vocab, dim := weight.Data.Dim(0), weight.Data.Dim(1)
	out := tensor.ArenaOf(weight.Data).New(len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("autograd: Gather index %d out of vocab %d", id, vocab))
		}
		copy(out.Data[i*dim:(i+1)*dim], weight.Data.Data[id*dim:(id+1)*dim])
	}
	node := newNode(out, weight)
	if node.requiresGrad {
		node.back = gatherBack
		node.ints = ids
	}
	return node
}

func gatherBack(n *Value, g *tensor.Tensor) {
	weight := n.parents[0]
	dim := weight.Data.Dim(1)
	gw := tensor.NewLike(weight.Data)
	for i, id := range n.ints {
		for d := 0; d < dim; d++ {
			gw.Data[id*dim+d] += g.Data[i*dim+d]
		}
	}
	weight.accumGrad(gw)
}

// ConcatChannels concatenates two NCHW Values along the channel
// dimension.
func ConcatChannels(a, b *Value) *Value {
	ad, bd := a.Data, b.Data
	if ad.Rank() != 4 || bd.Rank() != 4 || ad.Dim(0) != bd.Dim(0) || ad.Dim(2) != bd.Dim(2) || ad.Dim(3) != bd.Dim(3) {
		panic(fmt.Sprintf("autograd: ConcatChannels shapes %v and %v incompatible", ad.Shape(), bd.Shape()))
	}
	n, ca, cb, h, w := ad.Dim(0), ad.Dim(1), bd.Dim(1), ad.Dim(2), ad.Dim(3)
	plane := h * w
	out := tensor.ArenaOf(a.Data, b.Data).New(n, ca+cb, h, w)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(ca+cb)*plane:], a.Data.Data[i*ca*plane:(i+1)*ca*plane])
		copy(out.Data[(i*(ca+cb)+ca)*plane:], b.Data.Data[i*cb*plane:(i+1)*cb*plane])
	}
	node := newNode(out, a, b)
	if node.requiresGrad {
		node.back = concatChannelsBack
	}
	return node
}

func concatChannelsBack(node *Value, g *tensor.Tensor) {
	a, b := node.parents[0], node.parents[1]
	ad, bd := a.Data, b.Data
	n, ca, cb, h, w := ad.Dim(0), ad.Dim(1), bd.Dim(1), ad.Dim(2), ad.Dim(3)
	plane := h * w
	if a.requiresGrad {
		ga := tensor.NewLike(a.Data)
		for i := 0; i < n; i++ {
			copy(ga.Data[i*ca*plane:(i+1)*ca*plane], g.Data[i*(ca+cb)*plane:])
		}
		a.accumGrad(ga)
	}
	if b.requiresGrad {
		gb := tensor.NewLike(b.Data)
		for i := 0; i < n; i++ {
			copy(gb.Data[i*cb*plane:(i+1)*cb*plane], g.Data[(i*(ca+cb)+ca)*plane:])
		}
		b.accumGrad(gb)
	}
}

// GatherCols selects columns of a 2-D Value by index, producing a
// [rows, len(idx)] Value. Backward scatter-adds into the selected
// columns. Used to regroup channel-major detector head outputs.
func GatherCols(a *Value, idx []int) *Value {
	if a.Data.Rank() != 2 {
		panic("autograd: GatherCols requires 2-D input")
	}
	rows, cols := a.Data.Dim(0), a.Data.Dim(1)
	w := len(idx)
	out := tensor.ArenaOf(a.Data).New(rows, w)
	for _, j := range idx {
		if j < 0 || j >= cols {
			panic(fmt.Sprintf("autograd: GatherCols index %d out of %d cols", j, cols))
		}
	}
	for r := 0; r < rows; r++ {
		for k, j := range idx {
			out.Data[r*w+k] = a.Data.Data[r*cols+j]
		}
	}
	node := newNode(out, a)
	if node.requiresGrad {
		node.back = gatherColsBack
		node.ints = idx
	}
	return node
}

func gatherColsBack(n *Value, g *tensor.Tensor) {
	a := n.parents[0]
	rows, cols := a.Data.Dim(0), a.Data.Dim(1)
	idx := n.ints
	w := len(idx)
	ga := tensor.NewLike(a.Data)
	for r := 0; r < rows; r++ {
		for k, j := range idx {
			ga.Data[r*cols+j] += g.Data[r*w+k]
		}
	}
	a.accumGrad(ga)
}
