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

// score returns [N,1] dot-product scores for (user, item) pairs: the
// row sums of the embeddings' product, taken as a product with a ones
// column built in the step's arena.
func (m *mfScorer) score(users, items []int) *autograd.Value {
	u := m.userEmb.Lookup(users)
	v := m.itemEmb.Lookup(items)
	prod := autograd.Mul(u, v)
	ones := tensor.ArenaOf(prod.Data).New(m.dim, 1)
	ones.Fill(1)
	return autograd.MatMul(prod, autograd.Const(ones))
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

	// What every step reuses: the step's BPR draw.
	drawUsers, drawPos, drawNeg []int
	// What every evaluation reuses: the ground-truth top 5 of each
	// user, and rankItems' (user, item) pairs and sort order.
	topK       [][]int
	rankUsers  []int
	rankIDs    []int
	rankScores byScore
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
	b.drawUsers, b.drawPos, b.drawNeg = make([]int, b.batch), make([]int, b.batch), make([]int, b.batch)
	b.topK = make([][]int, users)
	for u := range b.topK {
		b.topK[u] = b.ds.TopK(u, 5)
	}
	b.rankUsers, b.rankIDs = make([]int, items), make([]int, items)
	for i := range b.rankIDs {
		b.rankIDs[i] = i
	}
	b.rankScores.idx = make([]int, items)
	b.adopt(b.Module())
	return b
}

// bprLoss is the Bayesian Personalized Ranking objective:
// −log σ(s⁺ − s⁻), whose all-ones target is built in the step's arena.
func bprLoss(m *mfScorer, users, pos, neg []int) *autograd.Value {
	diff := autograd.Sub(m.score(users, pos), m.score(users, neg))
	ones := tensor.NewLike(diff.Data)
	ones.Fill(1)
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

// BeginPhase implements Benchmark: draw the BPR triple macro-batch.
func (b *LearningToRank) BeginPhase(int, int) int {
	b.ds.BPRTriple(b.drawUsers, b.drawPos, b.drawNeg)
	return b.batch
}

// Grain implements Benchmark: train on triples [lo,hi) of the draw —
// BPR on the teacher until it has trained teacherEpochs epochs, then
// BPR plus distillation on the student.
func (b *LearningToRank) Grain(_, lo, hi int) (float64, int) {
	u, p, n := b.drawUsers[lo:hi], b.drawPos[lo:hi], b.drawNeg[lo:hi]
	if b.epoch <= b.teacherEpochs {
		return backward(bprLoss(b.teacher, u, p, n), hi-lo)
	}
	// Distillation: the student's score matches the (frozen) teacher's
	// on both items of the triple.
	rank := bprLoss(b.student, u, p, n)
	tPos := b.teacher.score(u, p).Data
	tNeg := b.teacher.score(u, n).Data
	distill := autograd.Add(
		autograd.MSELoss(b.student.score(u, p), tPos),
		autograd.MSELoss(b.student.score(u, n), tNeg))
	return backward(autograd.Add(rank, autograd.Scale(distill, 0.5)), hi-lo)
}

// rankItems returns all items sorted by the student's score for user
// u, best first. The slice is the instance's, valid until the next
// call.
func (b *LearningToRank) rankItems(u int) []int {
	for i := range b.rankUsers {
		b.rankUsers[i] = u
	}
	o := &b.rankScores
	o.s = b.student.score(b.rankUsers, b.rankIDs).Data.Data
	for i := range o.idx {
		o.idx[i] = i
	}
	sort.Sort(o)
	o.s = nil // the scores die at the next Reset
	return o.idx
}

// byScore orders item ids by descending score; it is sort.Slice's
// comparison over sort.Sort, the same pdqsort without a reflected
// swapper, so the order of tied scores is what it always was.
type byScore struct {
	idx []int
	s   []float64 // score of item i, one per item
}

func (o *byScore) Len() int           { return len(o.idx) }
func (o *byScore) Less(a, c int) bool { return o.s[o.idx[a]] > o.s[o.idx[c]] }
func (o *byScore) Swap(a, c int)      { o.idx[a], o.idx[c] = o.idx[c], o.idx[a] }

// Quality implements Benchmark: mean student precision@5 against the
// ground-truth top-5 (the paper's Table 3 metric is precision; its
// Gowalla target is 14.58%, while the synthetic task supports much
// higher precision).
func (b *LearningToRank) Quality() float64 {
	total := 0.0
	for u := 0; u < b.users; u++ {
		b.arena.Reset()
		total += metrics.PrecisionAtK(b.rankItems(u), b.topK[u], 5)
	}
	return total / float64(b.users)
}

// Module implements Benchmark.
func (b *LearningToRank) Module() nn.Module {
	return Modules(b.teacher, b.student)
}

// learningToRankSpec is the paper-scale architecture: the paper's
// smallest-FLOPs workload (0.09 M-FLOPs per sample) — compact student MF
// with an MLP re-ranker over Gowalla-scale tables.
func learningToRankSpec() workload.Model {
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
