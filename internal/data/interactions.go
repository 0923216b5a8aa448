package data

import (
	"math/rand"
)

// Ratings generates implicit-feedback user-item interactions from a
// latent-factor model: user u interacts with item i with probability
// σ(p_u·q_i) — the MovieLens stand-in for the Neural Collaborative
// Filtering workload. Held-out positives support the HR@10 metric.
type Ratings struct {
	Users, Items int
	Dim          int
	userF        [][]float64
	itemF        [][]float64
	// heldOut[u] is the test positive for user u (leave-one-out
	// protocol): the user's highest-affinity item. worst[u] is the
	// lowest-affinity one. Together they decide, without sampling,
	// whether any item clears an affinity threshold for that user.
	heldOut []int
	worst   []int
	rng     *rand.Rand
}

// NewRatings builds the latent-factor interaction generator.
func NewRatings(seed int64, users, items, dim int) *Ratings {
	rng := NewRNG(seed)
	mk := func(n int) [][]float64 {
		f := make([][]float64, n)
		for i := range f {
			f[i] = make([]float64, dim)
			for d := range f[i] {
				f[i][d] = rng.NormFloat64()
			}
		}
		return f
	}
	r := &Ratings{
		Users: users, Items: items, Dim: dim,
		userF: mk(users), itemF: mk(items), rng: rng,
	}
	r.heldOut = make([]int, users)
	r.worst = make([]int, users)
	for u := range r.heldOut {
		r.heldOut[u], r.worst[u] = r.extremes(u)
	}
	return r
}

// affinity is the ground-truth score of user u for item i.
func (r *Ratings) affinity(u, i int) float64 {
	s := 0.0
	for d := 0; d < r.Dim; d++ {
		s += r.userF[u][d] * r.itemF[i][d]
	}
	return s
}

// extremes returns the user's highest- and lowest-affinity items
// (first index on ties).
func (r *Ratings) extremes(u int) (best, worst int) {
	bestV := r.affinity(u, 0)
	worstV := bestV
	for i := 1; i < r.Items; i++ {
		switch v := r.affinity(u, i); {
		case v > bestV:
			best, bestV = i, v
		case v < worstV:
			worst, worstV = i, v
		}
	}
	return best, worst
}

// sample rejection-samples an item whose affinity for user u passes
// ok. extreme is the user's item most likely to pass (arg-max for a
// lower bound, arg-min for an upper one): when even it fails, no item
// can pass and sampling would never end, so it is returned as the
// closest stand-in without consuming a draw.
func (r *Ratings) sample(u, extreme int, ok func(affinity float64) bool) int {
	if !ok(r.affinity(u, extreme)) {
		return extreme
	}
	for {
		if i := r.rng.Intn(r.Items); ok(r.affinity(u, i)) {
			return i
		}
	}
}

// TrainBatch draws n (user, item, label) triples with balanced
// positives/negatives. A pair is positive when its ground-truth
// affinity is above 0.5 and negative when below −0.5; a user with no
// item past a threshold contributes their extreme item instead.
func (r *Ratings) TrainBatch(n int) (users, items []int, labels []float64) {
	users = make([]int, n)
	items = make([]int, n)
	labels = make([]float64, n)
	for k := 0; k < n; k++ {
		u := r.rng.Intn(r.Users)
		users[k] = u
		if k%2 == 0 {
			items[k] = r.sample(u, r.heldOut[u], func(a float64) bool { return a > 0.5 })
			labels[k] = 1
		} else {
			items[k] = r.sample(u, r.worst[u], func(a float64) bool { return a < -0.5 })
		}
	}
	return users, items, labels
}

// EvalCase returns the leave-one-out evaluation instance for a user: the
// held-out true item and negatives sampled from negative-affinity items
// (the user's lowest-affinity item stands in for all of them when the
// user has no negative-affinity item to sample).
func (r *Ratings) EvalCase(u, negatives int) (trueItem int, candidates []int) {
	trueItem = r.heldOut[u]
	candidates = []int{trueItem}
	if r.affinity(u, r.worst[u]) >= 0 {
		for len(candidates) < negatives+1 {
			candidates = append(candidates, r.worst[u])
		}
		return trueItem, candidates
	}
	for len(candidates) < negatives+1 {
		i := r.rng.Intn(r.Items)
		if i != trueItem && r.affinity(u, i) < 0 {
			candidates = append(candidates, i)
		}
	}
	return trueItem, candidates
}

// Checkins generates Gowalla-style location check-in preferences for the
// Learning-to-Rank workload: users have latent geographic preference and
// positive items are drawn from it. The ranking-distillation setup trains
// a teacher and then a compact student on these triples.
type Checkins struct {
	Users, Items int
	Dim          int
	userF        [][]float64
	itemF        [][]float64
	rng          *rand.Rand
}

// NewCheckins builds the check-in preference generator.
func NewCheckins(seed int64, users, items, dim int) *Checkins {
	rng := NewRNG(seed)
	mk := func(n int) [][]float64 {
		f := make([][]float64, n)
		for i := range f {
			f[i] = make([]float64, dim)
			for d := range f[i] {
				f[i][d] = rng.NormFloat64()
			}
		}
		return f
	}
	return &Checkins{Users: users, Items: items, Dim: dim, userF: mk(users), itemF: mk(items), rng: rng}
}

// affinity is the ground-truth preference of user u for item i.
func (c *Checkins) affinity(u, i int) float64 {
	s := 0.0
	for d := 0; d < c.Dim; d++ {
		s += c.userF[u][d] * c.itemF[i][d]
	}
	return s
}

// BPRTriple samples len(users) (user, preferredItem, otherItem)
// triples, where the preferred item has strictly higher ground-truth
// affinity, into the caller's buffers; pos and neg are as long as
// users.
func (c *Checkins) BPRTriple(users, pos, neg []int) {
	for k := range users {
		u := c.rng.Intn(c.Users)
		i := c.rng.Intn(c.Items)
		j := c.rng.Intn(c.Items)
		if c.affinity(u, i) < c.affinity(u, j) {
			i, j = j, i
		}
		users[k], pos[k], neg[k] = u, i, j
	}
}

// TopK returns the ground-truth top-k items for a user, for precision@k
// scoring.
func (c *Checkins) TopK(u, k int) []int {
	type pair struct {
		item int
		v    float64
	}
	ps := make([]pair, c.Items)
	for i := 0; i < c.Items; i++ {
		ps[i] = pair{i, c.affinity(u, i)}
	}
	// Partial selection sort: k is tiny.
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(ps); b++ {
			if ps[b].v > ps[best].v {
				best = b
			}
		}
		ps[a], ps[best] = ps[best], ps[a]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].item
	}
	return out
}
