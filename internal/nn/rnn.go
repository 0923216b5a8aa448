package nn

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/tensor"
)

// LSTMCell is a single long short-term memory cell. Gate layout in the
// fused weight matrices is [input | forget | cell | output].
type LSTMCell struct {
	Wx, Wh, B *Param
	In, Hid   int
}

// NewLSTMCell constructs an LSTM cell with Xavier weights and forget-gate
// bias 1 (the standard trick for gradient flow early in training).
func NewLSTMCell(rng *rand.Rand, in, hid int) *LSTMCell {
	b := tensor.New(4 * hid)
	for i := hid; i < 2*hid; i++ {
		b.Data[i] = 1
	}
	return &LSTMCell{
		Wx:  &Param{Name: "lstm.wx", Value: autograd.Var(tensor.XavierUniform(rng, in, 4*hid, in, 4*hid))},
		Wh:  &Param{Name: "lstm.wh", Value: autograd.Var(tensor.XavierUniform(rng, hid, 4*hid, hid, 4*hid))},
		B:   &Param{Name: "lstm.b", Value: autograd.Var(b)},
		In:  in,
		Hid: hid,
	}
}

// Step advances the cell one timestep: x is [N, In]; h and c are [N, Hid].
func (l *LSTMCell) Step(x, h, c *autograd.Value) (hNext, cNext *autograd.Value) {
	gates := autograd.AddRowVector(
		autograd.Add(autograd.MatMul(x, l.Wx.Value), autograd.MatMul(h, l.Wh.Value)),
		l.B.Value)
	hd := l.Hid
	i := autograd.Sigmoid(autograd.SliceCols(gates, 0, hd))
	f := autograd.Sigmoid(autograd.SliceCols(gates, hd, 2*hd))
	g := autograd.Tanh(autograd.SliceCols(gates, 2*hd, 3*hd))
	o := autograd.Sigmoid(autograd.SliceCols(gates, 3*hd, 4*hd))
	cNext = autograd.Add(autograd.Mul(f, c), autograd.Mul(i, g))
	hNext = autograd.Mul(o, autograd.Tanh(cNext))
	return hNext, cNext
}

// InitState returns zero hidden and cell states for batch size n.
func (l *LSTMCell) InitState(n int) (h, c *autograd.Value) {
	return autograd.Const(tensor.New(n, l.Hid)), autograd.Const(tensor.New(n, l.Hid))
}

// Params returns the fused gate weights and bias.
func (l *LSTMCell) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// GRUCell is a gated recurrent unit cell. Gate layout is
// [reset | update] with a separate candidate transform.
type GRUCell struct {
	Wx, Wh, B    *Param
	Wxc, Whc, Bc *Param
	In, Hid      int
}

// NewGRUCell constructs a GRU cell with Xavier weights.
func NewGRUCell(rng *rand.Rand, in, hid int) *GRUCell {
	return &GRUCell{
		Wx:  &Param{Name: "gru.wx", Value: autograd.Var(tensor.XavierUniform(rng, in, 2*hid, in, 2*hid))},
		Wh:  &Param{Name: "gru.wh", Value: autograd.Var(tensor.XavierUniform(rng, hid, 2*hid, hid, 2*hid))},
		B:   &Param{Name: "gru.b", Value: autograd.Var(tensor.New(2 * hid))},
		Wxc: &Param{Name: "gru.wxc", Value: autograd.Var(tensor.XavierUniform(rng, in, hid, in, hid))},
		Whc: &Param{Name: "gru.whc", Value: autograd.Var(tensor.XavierUniform(rng, hid, hid, hid, hid))},
		Bc:  &Param{Name: "gru.bc", Value: autograd.Var(tensor.New(hid))},
		In:  in,
		Hid: hid,
	}
}

// Step advances the cell one timestep.
func (g *GRUCell) Step(x, h *autograd.Value) *autograd.Value {
	gates := autograd.AddRowVector(
		autograd.Add(autograd.MatMul(x, g.Wx.Value), autograd.MatMul(h, g.Wh.Value)),
		g.B.Value)
	hd := g.Hid
	r := autograd.Sigmoid(autograd.SliceCols(gates, 0, hd))
	z := autograd.Sigmoid(autograd.SliceCols(gates, hd, 2*hd))
	cand := autograd.Tanh(autograd.AddRowVector(
		autograd.Add(autograd.MatMul(x, g.Wxc.Value), autograd.MatMul(autograd.Mul(r, h), g.Whc.Value)),
		g.Bc.Value))
	// h' = (1-z)*h + z*cand
	ones := tensor.NewLike(z.Data)
	ones.Fill(1)
	one := autograd.Const(ones)
	keep := autograd.Sub(one, z)
	return autograd.Add(autograd.Mul(keep, h), autograd.Mul(z, cand))
}

// InitState returns a zero hidden state for batch size n.
func (g *GRUCell) InitState(n int) *autograd.Value {
	return autograd.Const(tensor.New(n, g.Hid))
}

// Params returns all six weight tensors.
func (g *GRUCell) Params() []*Param {
	return []*Param{g.Wx, g.Wh, g.B, g.Wxc, g.Whc, g.Bc}
}
