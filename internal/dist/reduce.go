package dist

// Reduce combines vecs — one equal-length vector per grain — into dst
// as the weighted sum Σ w[g]·vecs[g] in ascending grain order (the
// rank-ordered all-reduce): dst = ((w0·v0 + w1·v1) + w2·v2) + … The
// order depends only on the grain count — never on the worker count or
// scheduling — so the result is bitwise identical for any number of
// workers. dst is fully overwritten.
func Reduce(vecs [][]float64, weights []float64, dst []float64) {
	if len(vecs) == 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	for j := range dst {
		dst[j] = weights[0] * vecs[0][j]
	}
	for g := 1; g < len(vecs); g++ {
		w, v := weights[g], vecs[g]
		for j := range dst {
			dst[j] += w * v[j]
		}
	}
}
