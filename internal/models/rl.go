package models

import (
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// ReinforcementLearning is the MLPerf RL benchmark (Minigo: AlphaZero-
// style Go). Full Go self-play is hardware-gated, so per the
// substitution rule the scaled benchmark is a policy-gradient agent with
// a convolutional policy+value network on a deterministic grid
// pursuit game: the same training loop shape (self-generated episodes,
// REINFORCE with a value baseline) and the same quality metric style
// (move agreement with a reference policy, mirroring Minigo's
// "pro move prediction"). Notably the paper could not converge this
// benchmark either (34% of the 40% target after 96 hours).
type ReinforcementLearning struct {
	stepArena
	singlePhase
	policy  *convBlock
	polHead *nn.Linear
	valHead *nn.Linear
	opt     optim.Optimizer
	rng     *rand.Rand
	board   int
	units
	episodes [rlEpisodesPerStep][]rlStep // the step's self-played episodes
}

// NewReinforcementLearning constructs the scaled benchmark.
func NewReinforcementLearning(seed int64) *ReinforcementLearning {
	rng := rand.New(rand.NewSource(seed))
	board := 5
	b := &ReinforcementLearning{
		policy:  newConvBlock(rng, 2, 6, 3, 1, 1),
		polHead: nn.NewLinear(rng, 6*board*board, 4),
		valHead: nn.NewLinear(rng, 6*board*board, 1),
		rng:     rng,
		board:   board,
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	b.adopt(b.Module())
	return b
}

// boardTensor encodes agent and target positions as a 2-channel plane.
func (b *ReinforcementLearning) boardTensor(ax, ay, tx, ty int) *tensor.Tensor {
	t := tensor.New(1, 2, b.board, b.board)
	t.Set(1, 0, 0, ay, ax)
	t.Set(1, 0, 1, ty, tx)
	return t
}

// forward returns policy logits [1,4] and value [1,1].
func (b *ReinforcementLearning) forward(state *tensor.Tensor) (*autograd.Value, *autograd.Value) {
	h := b.policy.Forward(autograd.Const(state))
	flat := autograd.Reshape(h, 1, 6*b.board*b.board)
	return b.polHead.Forward(flat), b.valHead.Forward(flat)
}

// moves: 0=up 1=down 2=left 3=right.
var dxs = [4]int{0, 0, -1, 1}
var dys = [4]int{-1, 1, 0, 0}

// optimalMove is the reference policy: step toward the target.
func optimalMove(ax, ay, tx, ty int) int {
	if ax != tx {
		if tx > ax {
			return 3
		}
		return 2
	}
	if ty > ay {
		return 1
	}
	return 0
}

// episode plays one self-generated game, returning per-step (state,
// action, return) tuples.
type rlStep struct {
	state  *tensor.Tensor
	action int
	ret    float64
}

func (b *ReinforcementLearning) episode(maxSteps int) []rlStep {
	ax, ay := b.rng.Intn(b.board), b.rng.Intn(b.board)
	tx, ty := b.rng.Intn(b.board), b.rng.Intn(b.board)
	for tx == ax && ty == ay {
		tx = b.rng.Intn(b.board)
	}
	var steps []rlStep
	rewards := make([]float64, 0, maxSteps)
	for s := 0; s < maxSteps; s++ {
		state := b.boardTensor(ax, ay, tx, ty)
		logits, _ := b.forward(state)
		probs := tensor.SoftmaxRows(logits.Data)
		// Sample an action.
		u := b.rng.Float64()
		action := 3
		acc := 0.0
		for a := 0; a < 4; a++ {
			acc += probs.At(0, a)
			if u <= acc {
				action = a
				break
			}
		}
		nx, ny := ax+dxs[action], ay+dys[action]
		reward := -0.05
		if nx < 0 || nx >= b.board || ny < 0 || ny >= b.board {
			reward = -0.2
			nx, ny = ax, ay
		}
		done := nx == tx && ny == ty
		if done {
			reward = 1
		}
		steps = append(steps, rlStep{state: state, action: action})
		rewards = append(rewards, reward)
		ax, ay = nx, ny
		if done {
			break
		}
	}
	// Discounted returns.
	g := 0.0
	for i := len(steps) - 1; i >= 0; i-- {
		g = rewards[i] + 0.95*g
		steps[i].ret = g
	}
	return steps
}

// episodeLoss builds one episode's loss: REINFORCE with a learned value
// baseline.
func (b *ReinforcementLearning) episodeLoss(steps []rlStep) *autograd.Value {
	var losses []*autograd.Value
	for _, s := range steps {
		logits, value := b.forward(s.state)
		adv := s.ret - value.Item()
		pg := autograd.Scale(autograd.SoftmaxCrossEntropy(logits, []int{s.action}), adv)
		vl := autograd.MSELoss(value, tensor.FromSlice([]float64{s.ret}, 1, 1))
		losses = append(losses, autograd.Add(pg, autograd.Scale(vl, 0.5)))
	}
	return meanLoss(losses)
}

// rlEpisodesPerStep is the step's episode count.
const rlEpisodesPerStep = 2

// BeginEpoch implements Benchmark.
func (b *ReinforcementLearning) BeginEpoch() { b.policy.SetTraining(true) }

// StepsPerEpoch implements Benchmark: two steps of rlEpisodesPerStep
// episodes.
func (b *ReinforcementLearning) StepsPerEpoch(int) int { return 2 }

// ApplyPhase implements Benchmark.
func (b *ReinforcementLearning) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: every replica self-plays the
// step's episodes (identical policy weights and rng keep the
// trajectories in lockstep; the generation forwards' batch-norm
// drift is discarded by the engine's phase-start buffer snapshot).
func (b *ReinforcementLearning) BeginPhase(int, int) int {
	for e := range b.episodes {
		b.episodes[e] = b.episode(12)
	}
	return len(b.episodes)
}

// Grain implements Benchmark: train episodes [lo,hi) of the draw, each
// weighted by its step count.
func (b *ReinforcementLearning) Grain(phase, lo, hi int) (float64, int) {
	return b.unitsGrain(phase, lo, hi, b.episodeUnit)
}

// episodeUnit is episode e's loss and step count.
func (b *ReinforcementLearning) episodeUnit(_, e int) (*autograd.Value, int) {
	return b.episodeLoss(b.episodes[e]), len(b.episodes[e])
}

// Buffers implements Buffered: the policy trunk's batch-norm running
// statistics.
func (b *ReinforcementLearning) Buffers() []*tensor.Tensor { return b.policy.Buffers() }

// Quality implements Benchmark: agreement of the greedy policy with the
// reference (optimal) policy over random states — the analogue of
// Minigo's pro-move-prediction quality (MLPerf target 40%).
func (b *ReinforcementLearning) Quality() float64 {
	b.policy.SetTraining(false)
	match, total := 0, 0
	for i := 0; i < 60; i++ {
		b.arena.Reset()
		ax, ay := b.rng.Intn(b.board), b.rng.Intn(b.board)
		tx, ty := b.rng.Intn(b.board), b.rng.Intn(b.board)
		if ax == tx && ay == ty {
			continue
		}
		logits, _ := b.forward(b.boardTensor(ax, ay, tx, ty))
		pred := argmaxRows(nil, logits)[0]
		want := optimalMove(ax, ay, tx, ty)
		// Both axis moves can be optimal when off on both axes.
		alt := -1
		if ax != tx && ay != ty {
			if ty > ay {
				alt = 1
			} else {
				alt = 0
			}
		}
		if pred == want || pred == alt {
			match++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// Module implements Benchmark.
func (b *ReinforcementLearning) Module() nn.Module {
	return Modules(b.policy, b.polHead, b.valHead)
}

// minigoSpec is the paper-scale architecture: the Minigo dual network —
// 19 residual blocks of 256 filters at 19×19 with policy and value
// heads. (The paper excludes RL from the FLOPs/params comparison because
// they vary across epochs; the spec is still used for kernel-mix
// analysis.)
func minigoSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "stem", 17, 256, 3, 1, 19, 19)
	for i := 0; i < 19; i++ {
		ls, oh, ow = workload.ConvBNReLU(ls, "res.a", 256, 256, 3, 1, oh, ow)
		ls, oh, ow = workload.ConvBNReLU(ls, "res.b", 256, 256, 3, 1, oh, ow)
		ls = append(ls, workload.Layer{Kind: workload.Elementwise, Name: "res.add", Elems: 256 * oh * ow})
	}
	ls = append(ls,
		workload.Layer{Kind: workload.Conv, Name: "policy_conv", InC: 256, OutC: 2, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.Linear, Name: "policy_fc", In: 2 * oh * ow, Out: 362},
		workload.Layer{Kind: workload.Conv, Name: "value_conv", InC: 256, OutC: 1, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.Linear, Name: "value_fc1", In: oh * ow, Out: 256},
		workload.Layer{Kind: workload.Linear, Name: "value_fc2", In: 256, Out: 1},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: 362},
	)
	return workload.Model{Name: "MLPerf Reinforcement Learning (Minigo)", Layers: ls}
}
