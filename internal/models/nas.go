package models

import (
	"math"
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// archDecision describes the ENAS child search space: at each decision
// point the controller picks one option. The scaled space has three
// decisions: activation function (3 options), shared hidden transform
// (2 options), and whether to add a skip connection (2 options).
var archChoices = []int{3, 2, 2}

// architecture is one sampled child configuration.
type architecture [3]int

// nasChild is the weight-shared child language model: embedding →
// recurrent cell whose activation/transform/skip are architecture-
// dependent → vocabulary softmax. All candidate weights are shared
// across architectures, the core ENAS idea.
type nasChild struct {
	emb    *nn.Embedding
	wx     *nn.Linear
	wh     [2]*nn.Linear // decision 1 picks one
	proj   *nn.Linear
	hidden int
}

func newNASChild(rng *rand.Rand, vocab, hidden int) *nasChild {
	return &nasChild{
		emb:    nn.NewEmbedding(rng, vocab, hidden),
		wx:     nn.NewLinear(rng, hidden, hidden),
		wh:     [2]*nn.Linear{nn.NewLinear(rng, hidden, hidden), nn.NewLinear(rng, hidden, hidden)},
		proj:   nn.NewLinear(rng, hidden, vocab),
		hidden: hidden,
	}
}

func (c *nasChild) Params() []*nn.Param {
	var ps []*nn.Param
	for _, m := range []nn.Module{c.emb, c.wx, c.wh[0], c.wh[1], c.proj} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// step advances the recurrent cell under the given architecture.
func (c *nasChild) step(arch architecture, x, h *autograd.Value) *autograd.Value {
	pre := autograd.Add(c.wx.Forward(x), c.wh[arch[1]].Forward(h))
	var act *autograd.Value
	switch arch[0] {
	case 0:
		act = autograd.Tanh(pre)
	case 1:
		act = autograd.ReLU(pre)
	default:
		act = autograd.Sigmoid(pre)
	}
	if arch[2] == 1 {
		act = autograd.Add(act, h) // skip connection
	}
	return act
}

// nll computes the next-token negative log-likelihood (nats/token) of a
// token stream under the architecture.
func (c *nasChild) nll(arch architecture, stream []int) *autograd.Value {
	h := autograd.Const(tensor.New(1, c.hidden))
	var losses []*autograd.Value
	for t := 0; t+1 < len(stream); t++ {
		x := c.emb.Lookup([]int{stream[t]})
		h = c.step(arch, x, h)
		logits := c.proj.Forward(h)
		losses = append(losses, autograd.SoftmaxCrossEntropy(logits, []int{stream[t+1]}))
	}
	return meanLoss(losses)
}

// hiddenStates runs the child forward (no backward) over the stream,
// returning the recurrent state entering each prediction position:
// states[t] is the hidden state consumed together with token t
// (states[0] is the zero state).
func (c *nasChild) hiddenStates(arch architecture, stream []int) []*tensor.Tensor {
	preds := len(stream) - 1
	states := make([]*tensor.Tensor, preds)
	h := autograd.Const(tensor.New(1, c.hidden))
	for t := 0; t < preds; t++ {
		states[t] = h.Data
		x := c.emb.Lookup([]int{stream[t]})
		h = c.step(arch, x, h)
	}
	return states
}

// segmentNLL computes the mean next-token loss of prediction positions
// [lo,hi) starting from the given entry state — one truncated-BPTT
// segment (gradients do not flow across segment boundaries).
func (c *nasChild) segmentNLL(arch architecture, stream []int, lo, hi int, entry *tensor.Tensor) *autograd.Value {
	h := autograd.Const(entry)
	var losses []*autograd.Value
	for t := lo; t < hi; t++ {
		x := c.emb.Lookup([]int{stream[t]})
		h = c.step(arch, x, h)
		logits := c.proj.Forward(h)
		losses = append(losses, autograd.SoftmaxCrossEntropy(logits, []int{stream[t+1]}))
	}
	return meanLoss(losses)
}

// nasController is the REINFORCE policy over architectures: an LSTM that
// emits one categorical decision per step.
type nasController struct {
	lstm  *nn.LSTMCell
	heads []*nn.Linear
	dim   int
}

func newNASController(rng *rand.Rand, dim int) *nasController {
	c := &nasController{lstm: nn.NewLSTMCell(rng, dim, dim), dim: dim}
	for _, opts := range archChoices {
		c.heads = append(c.heads, nn.NewLinear(rng, dim, opts))
	}
	return c
}

func (c *nasController) Params() []*nn.Param {
	ps := c.lstm.Params()
	for _, h := range c.heads {
		ps = append(ps, h.Params()...)
	}
	return ps
}

// sample draws an architecture from the policy and returns the
// log-probability graph node for REINFORCE.
func (c *nasController) sample(rng *rand.Rand) (architecture, *autograd.Value) {
	var arch architecture
	h, cc := c.lstm.InitState(1)
	x := autograd.Const(tensor.New(1, c.dim))
	var nlls []*autograd.Value
	for d, head := range c.heads {
		h, cc = c.lstm.Step(x, h, cc)
		logits := head.Forward(h)
		probs := tensor.SoftmaxRows(logits.Data)
		u := rng.Float64()
		choice := 0
		acc := 0.0
		for k := 0; k < archChoices[d]; k++ {
			acc += probs.At(0, k)
			if u <= acc {
				choice = k
				break
			}
			choice = k
		}
		arch[d] = choice
		nlls = append(nlls, autograd.SoftmaxCrossEntropy(logits, []int{choice}))
		x = autograd.Const(tensor.Full(float64(choice)/2, 1, c.dim))
	}
	sum := nlls[0]
	for _, l := range nlls[1:] {
		sum = autograd.Add(sum, l)
	}
	return arch, sum // sum = −log π(arch)
}

// NAS is DC-AI-C17: Efficient Neural Architecture Search via parameter
// sharing on PTB, scaled to a 12-point recurrent-cell search space over
// the synthetic Markov language; quality is the validation perplexity of
// the controller's best sampled child.
type NAS struct {
	stepArena
	child      *nasChild
	controller *nasController
	optChild   optim.Optimizer
	optCtrl    optim.Optimizer
	lang       *data.Language
	rng        *rand.Rand
	baseline   float64
	vocab      int
	seqLen     int
	units

	// Sharded-step state of the current phase: the sampled child
	// architecture and token stream with its precomputed segment entry
	// states (weights phases), or the sampled architecture's −log π
	// graph and REINFORCE advantage (controller phases).
	stepArch   architecture
	stepStream []int
	stepStates []*tensor.Tensor
	stepNLP    *autograd.Value
	stepAdv    float64
	// val holds the validation streams the controller phases and
	// BestArchitecture score architectures on.
	val []int
}

// NewNAS constructs the scaled benchmark.
func NewNAS(seed int64) *NAS {
	rng := rand.New(rand.NewSource(seed))
	lang := data.NewLanguage(seed+1000, 10)
	vocab := 10 + data.FirstWordToken
	b := &NAS{
		child:      newNASChild(rng, vocab, 12),
		controller: newNASController(rng, 8),
		lang:       lang,
		rng:        rng,
		vocab:      vocab,
		seqLen:     12,
	}
	b.stepStream, b.val = make([]int, b.seqLen), make([]int, 4*b.seqLen)
	b.optChild = optim.NewAdam(b.child, 3e-3)
	b.optCtrl = optim.NewAdam(b.controller, 2e-3)
	b.adopt(b.Module())
	return b
}

// nasSegments is the truncated-BPTT segment count a weights phase
// splits the child's token stream into; the segments are split over
// the phase's grains.
const nasSegments = 4

// nasPhases is the ENAS alternating scheme as ordered phases: three
// shared-weight child updates, each under a freshly sampled
// architecture and the only phases reporting into the step loss, then
// two controller REINFORCE updates that use the child's validation
// perplexity as reward. Two steps make an epoch of 6 child and 4
// controller updates.
var nasPhases = []PhaseSpec{
	{Name: "weights-1", Report: true}, {Name: "weights-2", Report: true}, {Name: "weights-3", Report: true},
	{Name: "controller-1"}, {Name: "controller-2"},
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *NAS) BeginEpoch() {}

// StepsPerEpoch implements Benchmark.
func (b *NAS) StepsPerEpoch(int) int { return 2 }

// Phases implements Benchmark.
func (b *NAS) Phases() []PhaseSpec { return nasPhases }

// PhaseParams implements Benchmark: weights phases reduce the
// shared child parameters, controller phases the policy parameters —
// disjoint groups, so the two optimizers never see each other's
// gradients.
func (b *NAS) PhaseParams(phase int) []*nn.Param {
	if phase < 3 {
		return b.child.Params()
	}
	return b.controller.Params()
}

// BeginPhase implements Benchmark. A weights phase samples an
// architecture from the controller, draws a token stream, and
// precomputes the truncated-BPTT segment entry states with a forward
// pass (identical on every replica); its units are the nasSegments
// segments. A controller phase samples an architecture, scores it with
// the child's validation perplexity, updates the reward baseline, and
// holds one unit, the REINFORCE update.
func (b *NAS) BeginPhase(phase, _ int) int {
	if phase < 3 {
		b.stepArch, _ = b.controller.sample(b.rng)
		b.lang.Sentence(b.stepStream)
		b.stepStates = b.child.hiddenStates(b.stepArch, b.stepStream)
		return nasSegments
	}
	arch, nlp := b.controller.sample(b.rng)
	val := b.val[:b.seqLen]
	b.lang.Sentence(val)
	ppl := math.Exp(b.child.nll(arch, val).Item())
	reward := 1 / ppl
	if b.baseline == 0 {
		b.baseline = reward
	}
	b.stepNLP = nlp
	b.stepAdv = reward - b.baseline
	b.baseline = 0.9*b.baseline + 0.1*reward
	return 1
}

// Grain implements Benchmark: a weights phase trains segments [lo,hi),
// each weighted by its prediction count; a controller phase backs the
// REINFORCE loss of its one unit.
func (b *NAS) Grain(phase, lo, hi int) (float64, int) {
	if phase < 3 {
		return b.unitsGrain(phase, lo, hi, b.segmentLoss)
	}
	return backward(autograd.Scale(b.stepNLP, b.stepAdv), 1)
}

// segmentLoss builds truncated-BPTT segment s's loss from its entry
// state and returns it with the segment's prediction count.
func (b *NAS) segmentLoss(_, s int) (*autograd.Value, int) {
	lo, hi := part(len(b.stepStream)-1, nasSegments, s)
	return b.child.segmentNLL(b.stepArch, b.stepStream, lo, hi, b.stepStates[lo]), hi - lo
}

// ApplyPhase implements Benchmark.
func (b *NAS) ApplyPhase(phase int) {
	if phase < 3 {
		b.optChild.Step()
		return
	}
	b.optCtrl.Step()
}

// BestArchitecture evaluates N controller samples and returns the one
// with the lowest validation perplexity.
func (b *NAS) BestArchitecture(samples int) (architecture, float64) {
	best := architecture{}
	bestPPL := math.Inf(1)
	for i := 0; i < samples; i++ {
		b.arena.Reset()
		arch, _ := b.controller.sample(b.rng)
		val := b.val[:4*b.seqLen]
		b.lang.Sentence(val)
		ppl := math.Exp(b.child.nll(arch, val).Item())
		if ppl < bestPPL {
			best, bestPPL = arch, ppl
		}
	}
	return best, bestPPL
}

// Quality implements Benchmark: best-of-6 sampled child perplexity
// (paper target: 100 perplexity at PTB scale).
func (b *NAS) Quality() float64 {
	_, ppl := b.BestArchitecture(6)
	return ppl
}

// Module implements Benchmark.
func (b *NAS) Module() nn.Module { return Modules(b.child, b.controller) }

// nasSpec is the paper-scale architecture: the ENAS recurrent search — a
// 64-unit LSTM controller plus the shared-weight child LM (1000-unit
// cell, 10k PTB vocabulary).
func nasSpec() workload.Model {
	var ls []workload.Layer
	ls = append(ls,
		// Controller.
		workload.Layer{Kind: workload.LSTM, Name: "controller", SeqLen: 12, Input: 64, Hidden: 64},
		workload.Layer{Kind: workload.Linear, Name: "ctrl_heads", In: 64, Out: 8, M: 12},
		// Shared child LM.
		workload.Layer{Kind: workload.Embedding, Name: "child_emb", Vocab: 10000, EmbDim: 1000, Lookups: 35},
		workload.Layer{Kind: workload.LSTM, Name: "child_cell", SeqLen: 35, Input: 1000, Hidden: 1000},
		workload.Layer{Kind: workload.Linear, Name: "child_proj", In: 1000, Out: 10000, M: 35},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: 35 * 10000},
	)
	return workload.Model{Name: "DC-AI-C17 Neural Architecture Search (ENAS/PTB)", Layers: ls}
}
