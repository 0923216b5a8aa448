package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/nn"
	"aibench/internal/tensor"
)

// convBlock is conv → batchnorm → relu, the workhorse of every CNN here.
type convBlock struct {
	conv *nn.Conv2D
	bn   *nn.BatchNorm2D
}

func newConvBlock(rng *rand.Rand, inC, outC, kernel, stride, padding int) *convBlock {
	return &convBlock{
		conv: nn.NewConv2DNoBias(rng, inC, outC, kernel, stride, padding),
		bn:   nn.NewBatchNorm2D(outC),
	}
}

func (b *convBlock) Forward(x *autograd.Value) *autograd.Value {
	return autograd.ReLU(b.bn.Forward(b.conv.Forward(x)))
}

func (b *convBlock) Params() []*nn.Param {
	return append(b.conv.Params(), b.bn.Params()...)
}

func (b *convBlock) SetTraining(train bool) { b.bn.SetTraining(train) }

func (b *convBlock) Buffers() []*tensor.Tensor { return b.bn.Buffers() }

// residualBlock is the scaled bottleneck: two 3×3 conv-bn stages with an
// identity shortcut (1×1 projection when channels change).
type residualBlock struct {
	a, b *convBlock
	proj *nn.Conv2D // nil when identity
}

func newResidualBlock(rng *rand.Rand, inC, outC, stride int) *residualBlock {
	r := &residualBlock{
		a: newConvBlock(rng, inC, outC, 3, stride, 1),
		b: newConvBlock(rng, outC, outC, 3, 1, 1),
	}
	if inC != outC || stride != 1 {
		r.proj = nn.NewConv2DNoBias(rng, inC, outC, 1, stride, 0)
	}
	return r
}

func (r *residualBlock) Forward(x *autograd.Value) *autograd.Value {
	h := r.b.Forward(r.a.Forward(x))
	short := x
	if r.proj != nil {
		short = r.proj.Forward(x)
	}
	return autograd.ReLU(autograd.Add(h, short))
}

func (r *residualBlock) Params() []*nn.Param {
	ps := append(r.a.Params(), r.b.Params()...)
	if r.proj != nil {
		ps = append(ps, r.proj.Params()...)
	}
	return ps
}

func (r *residualBlock) SetTraining(train bool) {
	r.a.SetTraining(train)
	r.b.SetTraining(train)
}

func (r *residualBlock) Buffers() []*tensor.Tensor {
	return append(r.a.Buffers(), r.b.Buffers()...)
}

// miniResNet is the scaled stand-in for ResNet-50: stem + two residual
// stages + global pooling + classifier head.
type miniResNet struct {
	stem    *convBlock
	stage1  *residualBlock
	stage2  *residualBlock
	head    *nn.Linear
	classes int
}

func newMiniResNet(rng *rand.Rand, inC, width, classes int) *miniResNet {
	return &miniResNet{
		stem:    newConvBlock(rng, inC, width, 3, 1, 1),
		stage1:  newResidualBlock(rng, width, width, 1),
		stage2:  newResidualBlock(rng, width, 2*width, 2),
		head:    nn.NewLinear(rng, 2*width, classes),
		classes: classes,
	}
}

// Forward returns class logits for an NCHW batch.
func (m *miniResNet) Forward(x *autograd.Value) *autograd.Value {
	h := m.stem.Forward(x)
	h = m.stage1.Forward(h)
	h = m.stage2.Forward(h)
	return m.head.Forward(autograd.GlobalAvgPool2D(h))
}

// Features returns the pooled feature vector (for embedding heads).
func (m *miniResNet) Features(x *autograd.Value) *autograd.Value {
	h := m.stem.Forward(x)
	h = m.stage1.Forward(h)
	h = m.stage2.Forward(h)
	return autograd.GlobalAvgPool2D(h)
}

func (m *miniResNet) Params() []*nn.Param {
	ps := append(m.stem.Params(), m.stage1.Params()...)
	ps = append(ps, m.stage2.Params()...)
	return append(ps, m.head.Params()...)
}

func (m *miniResNet) SetTraining(train bool) {
	m.stem.SetTraining(train)
	m.stage1.SetTraining(train)
	m.stage2.SetTraining(train)
}

func (m *miniResNet) Buffers() []*tensor.Tensor {
	bs := append(m.stem.Buffers(), m.stage1.Buffers()...)
	return append(bs, m.stage2.Buffers()...)
}

// argmaxRows extracts the predicted class per row of a logits Value.
func argmaxRows(v *autograd.Value) []int {
	rows, cols := v.Data.Dim(0), v.Data.Dim(1)
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := v.Data.Data[r*cols : (r+1)*cols]
		best := 0
		for c, x := range row {
			if x > row[best] {
				best = c
			}
		}
		out[r] = best
	}
	return out
}
