// Package nn provides neural-network layers, parameter management, and
// composition on top of the autograd engine. Together with internal/optim
// it forms the training framework substrate that the AIBench workloads
// run on (the role PyTorch plays in the paper's reference
// implementations).
package nn

import "aibench/internal/autograd"

// Param is a named trainable tensor.
type Param struct {
	Name  string
	Value *autograd.Value
}

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*Param
}

// Layer is a single-input single-output module, composable by Sequential.
type Layer interface {
	Module
	Forward(x *autograd.Value) *autograd.Value
}

// Sequential chains layers, feeding each output to the next input.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies each layer in order.
func (s *Sequential) Forward(x *autograd.Value) *autograd.Value {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
