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

// Recommendation is DC-AI-C10 (and the MLPerf Recommendation benchmark,
// which the paper notes uses the same model and dataset): Neural
// Collaborative Filtering on MovieLens, scaled to synthetic
// latent-factor interactions; quality is HR@10 under the leave-one-out
// protocol.
type Recommendation struct {
	stepArena
	singlePhase
	userEmb *nn.Embedding
	itemEmb *nn.Embedding
	mlp     *nn.Sequential
	opt     optim.Optimizer
	ds      *data.Ratings
	batches int
	batch   int
	users   int
}

// NewRecommendation constructs the scaled benchmark.
func NewRecommendation(seed int64) *Recommendation {
	rng := rand.New(rand.NewSource(seed))
	users, items, dim := 24, 60, 8
	b := &Recommendation{
		userEmb: nn.NewEmbedding(rng, users, dim),
		itemEmb: nn.NewEmbedding(rng, items, dim),
		mlp: nn.NewSequential(
			nn.NewLinear(rng, 2*dim, 16), nn.ReLU{},
			nn.NewLinear(rng, 16, 8), nn.ReLU{},
			nn.NewLinear(rng, 8, 1),
		),
		ds:      data.NewRatings(seed+1000, users, items, 4),
		batches: 10,
		batch:   32,
		users:   users,
	}
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	b.adopt(b.Module())
	return b
}

// Name implements Benchmark.
func (b *Recommendation) Name() string { return "Recommendation" }

// score returns interaction logits for (user, item) id pairs.
func (b *Recommendation) score(users, items []int) *autograd.Value {
	u := b.userEmb.Lookup(users)
	v := b.itemEmb.Lookup(items)
	return b.mlp.Forward(autograd.ConcatCols(u, v))
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *Recommendation) BeginEpoch() {}

// StepsPerEpoch implements Benchmark.
func (b *Recommendation) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *Recommendation) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the interaction macro-batch
// and split it into per-grain scoring sub-batches, binary cross-entropy
// on implicit feedback.
func (b *Recommendation) BeginPhase(_, grains int) []Grain {
	users, items, labels := b.ds.TrainBatch(b.batch)
	return splitGrains(b.batch, grains, func(lo, hi int) Grain {
		return func() (float64, int) {
			logits := b.score(users[lo:hi], items[lo:hi])
			target := tensor.FromSlice(labels[lo:hi], hi-lo, 1)
			loss := autograd.BCEWithLogits(logits, target)
			loss.Backward()
			return loss.Item(), hi - lo
		}
	})
}

// Quality implements Benchmark: mean HR@10 over all users with 50
// sampled negatives each (the NCF evaluation protocol).
func (b *Recommendation) Quality() float64 {
	total := 0.0
	for u := 0; u < b.users; u++ {
		b.arena.Reset()
		trueItem, cands := b.ds.EvalCase(u, 50)
		users := make([]int, len(cands))
		for i := range users {
			users[i] = u
		}
		logits := b.score(users, cands)
		scores := make([]float64, len(cands))
		for i := range scores {
			scores[i] = logits.Data.At(i, 0)
		}
		trueIdx := 0
		_ = trueItem // candidate 0 is the held-out item by construction
		total += metrics.HRAtK(scores, trueIdx, 10)
	}
	return total / float64(b.users)
}

// LowerIsBetter implements Benchmark.
func (b *Recommendation) LowerIsBetter() bool { return false }

// ScaledTarget implements Benchmark (paper target: 63.5% HR@10; the
// characterization's convergent quality is 60%).
func (b *Recommendation) ScaledTarget() float64 { return 0.60 }

// Module implements Benchmark.
func (b *Recommendation) Module() nn.Module {
	return Modules(b.userEmb, b.itemEmb, b.mlp)
}

// Spec implements Benchmark: NeuMF on MovieLens — GMF + MLP towers over
// user/item embeddings.
func (b *Recommendation) Spec() workload.Model {
	users, items, dim := 138000, 27000, 64
	var ls []workload.Layer
	ls = append(ls,
		workload.Layer{Kind: workload.Embedding, Name: "user_emb", Vocab: users, EmbDim: dim, Lookups: 1},
		workload.Layer{Kind: workload.Embedding, Name: "item_emb", Vocab: items, EmbDim: dim, Lookups: 1},
		workload.Layer{Kind: workload.Elementwise, Name: "gmf_mul", Elems: dim},
	)
	ls = workload.MLP(ls, "mlp", []int{2 * dim, 256, 128, 64}, 1)
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "predict", In: 128, Out: 1},
		workload.Layer{Kind: workload.Elementwise, Name: "sigmoid", Elems: 1},
	)
	return workload.Model{Name: "DC-AI-C10 Recommendation (NCF/MovieLens)", Layers: ls}
}
