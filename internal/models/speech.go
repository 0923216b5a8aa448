package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// SpeechRecognition is DC-AI-C6: DeepSpeech2 (convolutional input layers
// followed by recurrent layers and a softmax) on LibriSpeech, scaled to a
// per-frame linear front-end plus GRU over synthetic spectrogram frames
// with framewise alignment targets; quality is word error rate of the
// greedy collapsed decode.
type SpeechRecognition struct {
	stepArena
	front *nn.Linear
	gru   *nn.GRUCell
	proj  *nn.Linear
	opt   optim.Optimizer
	ds    *data.Speech
	vocab int
	units

	// Step state: the utterances of the current step, their token
	// strings and framewise alignments (in buffers every step reuses),
	// the segment split point per utterance, and the GRU entry state of
	// the current TBPTT segment (recomputed with post-segment-1 weights
	// before segment 2).
	stepFrames [speechUtterPerStep]*tensor.Tensor
	stepTokens [speechUtterPerStep][speechTokens]int
	stepAlign  [speechUtterPerStep][]int
	stepMid    [speechUtterPerStep]int
	stepState  [speechUtterPerStep]*tensor.Tensor
}

// NewSpeechRecognition constructs the scaled benchmark.
func NewSpeechRecognition(seed int64) *SpeechRecognition {
	rng := rand.New(rand.NewSource(seed))
	vocab, features, hidden := 8, 12, 20
	b := &SpeechRecognition{
		front: nn.NewLinear(rng, features, hidden),
		gru:   nn.NewGRUCell(rng, hidden, hidden),
		proj:  nn.NewLinear(rng, hidden, vocab),
		ds:    data.NewSpeech(seed+1000, vocab, features, 2, 3),
		vocab: vocab,
	}
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	b.adopt(b.Module())
	return b
}

// speechUtterPerStep is the step's utterance count: each optimizer
// step trains a batch of utterances, split over the step's grains.
// Every utterance, trained or evaluated, is speechTokens tokens long.
const speechUtterPerStep, speechTokens = 4, 4

// speechPhases splits every utterance's recurrence into two
// truncated-BPTT segments, each its own ordered phase: segment 1 is
// computed, all-reduced, and applied before segment 2 begins, and
// segment 2's GRU entry state is recomputed under the updated weights
// (the classic per-segment-update TBPTT scheme). Both segments report
// into the step loss.
var speechPhases = []PhaseSpec{
	{Name: "tbptt-1", Report: true}, {Name: "tbptt-2", Report: true},
}

// segmentForward runs the acoustic model over frame rows [lo,hi) of an
// utterance's frames [T, F] from the given GRU state, returning the
// segment's per-frame logits [hi-lo, vocab]. The GRU runs over time:
// each frame is a timestep with batch 1.
func (b *SpeechRecognition) segmentForward(frames *tensor.Tensor, lo, hi int, state *autograd.Value) *autograd.Value {
	h := autograd.ReLU(b.front.Forward(autograd.Const(frames.SliceRows(lo, hi))))
	outs := make([]*autograd.Value, hi-lo)
	for i := range outs {
		state = b.gru.Step(autograd.SliceRows(h, i, i+1), state)
		outs[i] = state
	}
	return b.proj.Forward(autograd.Concat(outs...))
}

// segmentState runs only the recurrence over frame rows [lo,hi) and
// returns the final GRU state — the phase-2 entry-state recompute
// needs the state alone, so the output projection is skipped.
func (b *SpeechRecognition) segmentState(frames *tensor.Tensor, lo, hi int, state *autograd.Value) *autograd.Value {
	h := autograd.ReLU(b.front.Forward(autograd.Const(frames.SliceRows(lo, hi))))
	for i := 0; i < hi-lo; i++ {
		state = b.gru.Step(autograd.SliceRows(h, i, i+1), state)
	}
	return state
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *SpeechRecognition) BeginEpoch() {}

// StepsPerEpoch implements Benchmark: 3 steps of speechUtterPerStep
// utterances each.
func (b *SpeechRecognition) StepsPerEpoch(int) int { return 3 }

// Phases implements Benchmark.
func (b *SpeechRecognition) Phases() []PhaseSpec { return speechPhases }

// PhaseParams implements Benchmark: both segments update the full
// acoustic model.
func (b *SpeechRecognition) PhaseParams(int) []*nn.Param { return nil }

// BeginPhase implements Benchmark: the first segment phase draws
// the step's utterances and trains frames [0, mid) of each from a zero
// state; the second recomputes each utterance's midpoint state under
// the post-segment-1 weights (forward only, identically on every
// replica) and trains frames [mid, T). Its units are the utterances.
func (b *SpeechRecognition) BeginPhase(phase, _ int) int {
	if phase == 0 {
		for u := range b.stepFrames {
			b.stepFrames[u], b.stepAlign[u] = b.ds.Utterance(b.Arena(), b.stepTokens[u][:], b.stepAlign[u])
			b.stepMid[u] = b.stepFrames[u].Dim(0) / 2
		}
	} else {
		for u := range b.stepFrames {
			b.stepState[u] = b.segmentState(b.stepFrames[u], 0, b.stepMid[u], b.gru.InitState(1)).Data
		}
	}
	return len(b.stepFrames)
}

// Grain implements Benchmark: train the phase's segment of utterances
// [lo,hi), each weighted by its segment's frame count.
func (b *SpeechRecognition) Grain(phase, lo, hi int) (float64, int) {
	return b.unitsGrain(phase, lo, hi, b.segmentLoss)
}

// segmentLoss builds utterance u's loss over the phase's segment —
// framewise cross-entropy against the generator's alignment (the
// CTC-free simplification; the code path — front-end, recurrence,
// softmax over tokens — matches DeepSpeech2) — and returns it with the
// segment's frame count.
func (b *SpeechRecognition) segmentLoss(phase, u int) (*autograd.Value, int) {
	lo, hi := 0, b.stepMid[u]
	state := b.gru.InitState(1)
	if phase == 1 {
		lo, hi = b.stepMid[u], b.stepFrames[u].Dim(0)
		state = autograd.Const(b.stepState[u])
	}
	logits := b.segmentForward(b.stepFrames[u], lo, hi, state)
	return autograd.SoftmaxCrossEntropy(logits, b.stepAlign[u][lo:hi]), hi - lo
}

// ApplyPhase implements Benchmark: every segment applies its own
// optimizer step, the per-segment-update TBPTT scheme.
func (b *SpeechRecognition) ApplyPhase(int) { b.opt.Step() }

// decode greedily decodes an utterance: argmax per frame of the whole
// utterance's logits, then collapse consecutive repeats.
func (b *SpeechRecognition) decode(frames *tensor.Tensor) []int {
	logits := b.segmentForward(frames, 0, frames.Dim(0), b.gru.InitState(1))
	raw := argmaxRows(nil, logits)
	var out []int
	for i, t := range raw {
		if i == 0 || raw[i-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// Quality implements Benchmark: WER over held-out utterances.
func (b *SpeechRecognition) Quality() float64 {
	total := 0.0
	const utterances = 12
	var tokens [speechTokens]int
	var align []int
	for i := 0; i < utterances; i++ {
		b.arena.Reset()
		var frames *tensor.Tensor
		frames, align = b.ds.Utterance(b.Arena(), tokens[:], align)
		hyp := b.decode(frames)
		total += metrics.WER(hyp, tokens[:])
	}
	return total / utterances
}

// Module implements Benchmark.
func (b *SpeechRecognition) Module() nn.Module {
	return Modules(b.front, b.gru, b.proj)
}

// speechRecognitionSpec is the paper-scale architecture: DeepSpeech2 —
// two conv input layers over spectrograms, five bidirectional recurrent
// layers of 800 hidden units, and a fully connected softmax over
// characters.
func speechRecognitionSpec() workload.Model {
	var ls []workload.Layer
	// Spectrogram input: 161 freq bins × 200 frames (a 2-second
	// utterance, treated as H×W).
	ls, oh, ow := workload.ConvBNReLU(nil, "conv1", 1, 32, 11, 2, 161, 200)
	ls2, oh, ow := workload.ConvBNReLU(ls, "conv2", 32, 32, 11, 1, oh, ow)
	ls = ls2
	seqLen := ow
	input := 32 * oh
	hidden := 800
	for i := 0; i < 5; i++ {
		in := input
		if i > 0 {
			in = 2 * hidden // bidirectional concatenation
		}
		// Forward and backward directions.
		ls = append(ls,
			workload.Layer{Kind: workload.GRU, Name: "rnn_fw", SeqLen: seqLen, Input: in, Hidden: hidden},
			workload.Layer{Kind: workload.GRU, Name: "rnn_bw", SeqLen: seqLen, Input: in, Hidden: hidden},
		)
	}
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "fc", In: 2 * hidden, Out: 29, M: seqLen},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: seqLen * 29},
	)
	return workload.Model{Name: "DC-AI-C6 Speech Recognition (DeepSpeech2/LibriSpeech)", Layers: ls}
}
