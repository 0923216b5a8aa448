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
	// The step's interaction draw, in buffers every step reuses; target
	// is the labels' [batch, 1] tensor, placed in the arena so a grain's
	// rows of it are an arena view.
	drawUsers, drawItems []int
	drawLabels           []float64
	target               *tensor.Tensor
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
	b.drawUsers, b.drawItems, b.drawLabels = make([]int, b.batch), make([]int, b.batch), make([]float64, b.batch)
	b.target = tensor.FromSlice(b.drawLabels, b.batch, 1)
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	b.adopt(b.Module())
	b.arena.Adopt(b.target)
	return b
}

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

// BeginPhase implements Benchmark: draw the interaction macro-batch.
func (b *Recommendation) BeginPhase(int, int) int {
	b.ds.TrainBatch(b.drawUsers, b.drawItems, b.drawLabels)
	return b.batch
}

// Grain implements Benchmark: score interactions [lo,hi) of the draw
// with binary cross-entropy on implicit feedback.
func (b *Recommendation) Grain(_, lo, hi int) (float64, int) {
	logits := b.score(b.drawUsers[lo:hi], b.drawItems[lo:hi])
	return backward(autograd.BCEWithLogits(logits, b.target.SliceRows(lo, hi)), hi-lo)
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

// Module implements Benchmark.
func (b *Recommendation) Module() nn.Module {
	return Modules(b.userEmb, b.itemEmb, b.mlp)
}

// recommendationSpec is the paper-scale architecture: NeuMF on MovieLens
// — GMF + MLP towers over user/item embeddings.
func recommendationSpec() workload.Model {
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
