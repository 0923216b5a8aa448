// Package workload defines the architecture-description vocabulary shared
// by the analytic FLOP/parameter counter (internal/profile) and the GPU
// execution simulator (internal/gpusim). A workload.Model lists the
// layers of a network at paper scale; each layer knows its forward FLOPs,
// parameter count, and activation volume, which is exactly the
// information the pytorch-OpCounter tool extracts in the paper's
// characterization (Section 5.2.1).
//
// Convention: one multiply-accumulate counts as 2 FLOPs, and FLOPs are
// per input sample (batch size 1), matching how the paper reports
// "FLOPs of a single forward computation".
package workload

import "fmt"

// LayerKind enumerates the computational layer families. These map onto
// the eight kernel categories of the paper's runtime breakdown (Fig 5 /
// Table 7) during lowering.
type LayerKind string

// Layer kinds.
const (
	Conv        LayerKind = "conv"        // 2-D convolution
	Linear      LayerKind = "linear"      // fully connected / GEMM
	BatchNorm   LayerKind = "batchnorm"   // batch normalization
	LayerNorm   LayerKind = "layernorm"   // layer normalization
	ReLU        LayerKind = "relu"        // rectifier (own category per Table 7)
	Elementwise LayerKind = "elementwise" // add/mul/sigmoid/tanh etc.
	Pool        LayerKind = "pool"        // max/avg pooling
	Softmax     LayerKind = "softmax"     // row softmax
	Embedding   LayerKind = "embedding"   // table lookup (data arrangement)
	LSTM        LayerKind = "lstm"        // fused recurrent layer
	GRU         LayerKind = "gru"         // fused recurrent layer
	Attention   LayerKind = "attention"   // multi-head attention block
	GridSample  LayerKind = "gridsample"  // bilinear warp (data arrangement)
	Upsample    LayerKind = "upsample"    // nearest-neighbour upsampling
	Memcpy      LayerKind = "memcpy"      // host/device or device/device copy
)

// Layer describes one layer of a model at full (paper) scale. Only the
// fields relevant to its Kind are set.
type Layer struct {
	Kind LayerKind
	Name string

	// Convolution / pooling geometry (input spatial size H×W).
	InC, OutC, Kernel, Stride, H, W int

	// Linear: output = In → Out applied M times per sample (M = sequence
	// length or spatial positions; M=1 for a plain classifier head).
	In, Out, M int

	// Recurrent: SeqLen steps of Input → Hidden.
	SeqLen, Input, Hidden int

	// Attention: sequence Seq of model dim Dim with Heads heads.
	Seq, Dim, Heads int

	// Elementwise / normalization / softmax / memcpy volume.
	Elems int

	// Embedding table geometry.
	Vocab, EmbDim, Lookups int

	// Tied marks layers whose weights are shared with an earlier layer
	// (e.g. the Transformer's tied embedding/output projection); they
	// contribute FLOPs but no new parameters.
	Tied bool
}

// outDim returns the convolution output spatial size for input size in.
func (l *Layer) outDim(in int) int {
	if l.Stride == 0 {
		return in
	}
	// Same-padding convention for spec-level accounting.
	return (in + l.Stride - 1) / l.Stride
}

// FLOPs returns the forward floating-point operations for one sample.
// It and the other Layer methods read the layer in place: a Layer is
// some two hundred bytes, and lowering calls them per layer.
func (l *Layer) FLOPs() float64 {
	switch l.Kind {
	case Conv:
		oh, ow := l.outDim(l.H), l.outDim(l.W)
		return 2 * float64(l.Kernel*l.Kernel*l.InC*l.OutC) * float64(oh*ow)
	case Linear:
		m := l.M
		if m == 0 {
			m = 1
		}
		return 2 * float64(m) * float64(l.In*l.Out)
	case BatchNorm, LayerNorm:
		return 2 * float64(l.Elems)
	case ReLU:
		return float64(l.Elems)
	case Elementwise:
		return float64(l.Elems)
	case Pool:
		oh, ow := l.outDim(l.H), l.outDim(l.W)
		return float64(l.Kernel*l.Kernel) * float64(l.InC*oh*ow)
	case Softmax:
		return 5 * float64(l.Elems)
	case Embedding:
		return 0
	case LSTM:
		per := 2*float64(l.Input*4*l.Hidden+l.Hidden*4*l.Hidden) + 24*float64(l.Hidden)
		return float64(l.SeqLen) * per
	case GRU:
		per := 2*float64(l.Input*3*l.Hidden+l.Hidden*3*l.Hidden) + 18*float64(l.Hidden)
		return float64(l.SeqLen) * per
	case Attention:
		d, s := float64(l.Dim), float64(l.Seq)
		proj := 4 * 2 * s * d * d           // Q,K,V,O projections
		scores := 2*s*s*d + 5*s*s + 2*s*s*d // QKᵀ, softmax, AV
		return proj + scores
	case GridSample:
		return 11 * float64(l.Elems)
	case Upsample:
		return float64(l.Elems)
	case Memcpy:
		return 0
	default:
		panic(fmt.Sprintf("workload: unknown layer kind %q", l.Kind))
	}
}

// Params returns the number of learnable parameters.
func (l *Layer) Params() int {
	if l.Tied {
		return 0
	}
	switch l.Kind {
	case Conv:
		return l.Kernel*l.Kernel*l.InC*l.OutC + l.OutC
	case Linear:
		return l.In*l.Out + l.Out
	case BatchNorm:
		return 2 * l.OutC
	case LayerNorm:
		return 2 * l.Dim
	case LSTM:
		return 4 * l.Hidden * (l.Input + l.Hidden + 1)
	case GRU:
		return 3 * l.Hidden * (l.Input + l.Hidden + 1)
	case Attention:
		return 4 * l.Dim * l.Dim
	case Embedding:
		return l.Vocab * l.EmbDim
	default:
		return 0
	}
}

// Activations returns the output element count per sample, which drives
// the simulator's memory-traffic model.
func (l *Layer) Activations() int {
	switch l.Kind {
	case Conv:
		oh, ow := l.outDim(l.H), l.outDim(l.W)
		return l.OutC * oh * ow
	case Linear:
		m := l.M
		if m == 0 {
			m = 1
		}
		return m * l.Out
	case Pool:
		oh, ow := l.outDim(l.H), l.outDim(l.W)
		return l.InC * oh * ow
	case LSTM, GRU:
		return l.SeqLen * l.Hidden
	case Attention:
		return l.Seq * l.Dim
	case Embedding:
		return l.Lookups * l.EmbDim
	default:
		return l.Elems
	}
}

// Model is a named list of layers plus metadata used by the harnesses.
type Model struct {
	Name   string
	Layers []Layer
}

// FLOPs returns total forward FLOPs per sample.
func (m Model) FLOPs() float64 {
	s := 0.0
	for i := range m.Layers {
		s += m.Layers[i].FLOPs()
	}
	return s
}

// Params returns total learnable parameters.
func (m Model) Params() int {
	s := 0
	for i := range m.Layers {
		s += m.Layers[i].Params()
	}
	return s
}
