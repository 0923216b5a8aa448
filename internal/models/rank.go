package models

import (
	"math/rand"
	"sort"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// mfScorer is a matrix-factorization ranking model: score(u,i) =
// userEmb(u) · itemEmb(i).
type mfScorer struct {
	userEmb *nn.Embedding
	itemEmb *nn.Embedding
	dim     int
}

func newMFScorer(rng *rand.Rand, users, items, dim int) *mfScorer {
	return &mfScorer{
		userEmb: nn.NewEmbedding(rng, users, dim),
		itemEmb: nn.NewEmbedding(rng, items, dim),
		dim:     dim,
	}
}

// score returns [N,1] dot-product scores for (user, item) pairs.
func (m *mfScorer) score(users, items []int) *autograd.Value {
	u := m.userEmb.Lookup(users)
	v := m.itemEmb.Lookup(items)
	prod := autograd.Mul(u, v)
	ones := autograd.Const(tensor.Ones(m.dim, 1))
	return autograd.MatMul(prod, ones)
}

func (m *mfScorer) Params() []*nn.Param {
	return append(m.userEmb.Params(), m.itemEmb.Params()...)
}

// LearningToRank is DC-AI-C16: Ranking Distillation on Gowalla — a large
// teacher ranking model supervises a compact student that keeps the
// teacher's accuracy with better inference cost. Scaled to MF
// teacher/student on synthetic check-ins; quality is the student's
// precision@5 against ground-truth preferences.
type LearningToRank struct {
	stepArena
	singlePhase
	teacher       *mfScorer
	student       *mfScorer
	optT, optS    optim.Optimizer
	ds            *data.Checkins
	epoch         int
	teacherEpochs int
	batches       int
	batch         int
	users, items  int
}

// NewLearningToRank constructs the scaled benchmark.
func NewLearningToRank(seed int64) *LearningToRank {
	rng := rand.New(rand.NewSource(seed))
	users, items := 16, 40
	b := &LearningToRank{
		teacher:       newMFScorer(rng, users, items, 12),
		student:       newMFScorer(rng, users, items, 4),
		ds:            data.NewCheckins(seed+1000, users, items, 4),
		teacherEpochs: 4,
		batches:       12,
		batch:         32,
		users:         users,
		items:         items,
	}
	b.optT = optim.NewAdam(b.teacher, 5e-3)
	b.optS = optim.NewAdam(b.student, 5e-3)
	b.adopt(b.Module())
	return b
}

// Name implements Benchmark.
func (b *LearningToRank) Name() string { return "Learning to Rank" }

// bprLoss is the Bayesian Personalized Ranking objective:
// −log σ(s⁺ − s⁻).
func bprLoss(m *mfScorer, users, pos, neg []int) *autograd.Value {
	diff := autograd.Sub(m.score(users, pos), m.score(users, neg))
	ones := tensor.Ones(len(users), 1)
	return autograd.BCEWithLogits(diff, ones)
}

// BeginEpoch implements Benchmark: advance the ranking-distillation
// curriculum — the teacher trains first; once it converges, the
// student trains with BPR plus a distillation term that pulls its
// scores toward the teacher's.
func (b *LearningToRank) BeginEpoch() { b.epoch++ }

// StepsPerEpoch implements Benchmark.
func (b *LearningToRank) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark: step whichever optimizer the
// current curriculum phase trains. The other model's parameters carry
// all-reduced zero gradients and are untouched.
func (b *LearningToRank) ApplyPhase(int) {
	if b.epoch <= b.teacherEpochs {
		b.optT.Step()
	} else {
		b.optS.Step()
	}
}

// BeginPhase implements Benchmark: draw the BPR triple macro-batch
// and split it into per-grain ranking (or distillation) sub-batches.
func (b *LearningToRank) BeginPhase(_, grains int) []Grain {
	users, pos, neg := b.ds.BPRTriple(b.batch)
	teacherPhase := b.epoch <= b.teacherEpochs
	return splitGrains(b.batch, grains, func(lo, hi int) Grain {
		return func() (float64, int) {
			u, p, n := users[lo:hi], pos[lo:hi], neg[lo:hi]
			var loss *autograd.Value
			if teacherPhase {
				loss = bprLoss(b.teacher, u, p, n)
			} else {
				// Distillation: the student's score matches the
				// (frozen) teacher's on both items of the triple.
				rank := bprLoss(b.student, u, p, n)
				tPos := b.teacher.score(u, p).Data
				tNeg := b.teacher.score(u, n).Data
				distill := autograd.Add(
					autograd.MSELoss(b.student.score(u, p), tPos),
					autograd.MSELoss(b.student.score(u, n), tNeg))
				loss = autograd.Add(rank, autograd.Scale(distill, 0.5))
			}
			loss.Backward()
			return loss.Item(), hi - lo
		}
	})
}

// rankItems returns all items sorted by the student's score for a user.
func (b *LearningToRank) rankItems(u int) []int {
	users := make([]int, b.items)
	items := make([]int, b.items)
	for i := range items {
		users[i], items[i] = u, i
	}
	s := b.student.score(users, items).Data
	idx := make([]int, b.items)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return s.At(idx[a], 0) > s.At(idx[c], 0) })
	return idx
}

// Quality implements Benchmark: mean student precision@5 against the
// ground-truth top-5 (the paper's Table 3 metric is precision; its
// Gowalla target is 14.58%, while the synthetic task supports much
// higher precision).
func (b *LearningToRank) Quality() float64 {
	total := 0.0
	for u := 0; u < b.users; u++ {
		b.arena.Reset()
		ranked := b.rankItems(u)
		relevant := b.ds.TopK(u, 5)
		total += metrics.PrecisionAtK(ranked, relevant, 5)
	}
	return total / float64(b.users)
}

// LowerIsBetter implements Benchmark.
func (b *LearningToRank) LowerIsBetter() bool { return false }

// ScaledTarget implements Benchmark.
func (b *LearningToRank) ScaledTarget() float64 { return 0.5 }

// Module implements Benchmark.
func (b *LearningToRank) Module() nn.Module {
	return Modules(b.teacher, b.student)
}

// Spec implements Benchmark: the paper's smallest-FLOPs workload
// (0.09 M-FLOPs per sample) — compact student MF with an MLP re-ranker
// over Gowalla-scale tables.
func (b *LearningToRank) Spec() workload.Model {
	users, items, dim := 196591, 183000, 50
	var ls []workload.Layer
	ls = append(ls,
		workload.Layer{Kind: workload.Embedding, Name: "user_emb", Vocab: users, EmbDim: dim, Lookups: 1},
		workload.Layer{Kind: workload.Embedding, Name: "item_emb", Vocab: items, EmbDim: dim, Lookups: 1},
		workload.Layer{Kind: workload.Elementwise, Name: "dot", Elems: dim},
	)
	ls = workload.MLP(ls, "rerank", []int{2 * dim, 200, 100, 1}, 1)
	ls = append(ls, workload.Layer{Kind: workload.Elementwise, Name: "sigmoid", Elems: 1})
	return workload.Model{Name: "DC-AI-C16 Learning to Rank (RankDistill/Gowalla)", Layers: ls}
}
