// Package metrics implements the quality metrics of Table 3: accuracy,
// VOC-style mean average precision, word error rate, BLEU, MSE,
// MS-SSIM, voxel intersection-over-union, HR@K, precision@K, Rouge-L,
// Earth-Mover distance, and the per-pixel accuracy used by the
// Image-to-Image workload.
package metrics

import (
	"math"
	"sort"
)

// Accuracy is the fraction of predictions equal to their labels.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) || len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// MSE is the mean squared error between two equal-length vectors.
func MSE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s / float64(len(a))
}

// WER computes the word error rate between hypothesis and reference token
// sequences via Levenshtein distance (substitutions+insertions+deletions
// over reference length).
func WER(hyp, ref []int) float64 {
	if len(ref) == 0 {
		if len(hyp) == 0 {
			return 0
		}
		return 1
	}
	return float64(levenshtein(hyp, ref)) / float64(len(ref))
}

func levenshtein(a, b []int) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(minInt(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// BLEU computes a corpus-level BLEU score (up to 4-grams with brevity
// penalty) over hypothesis/reference pairs.
func BLEU(hyps, refs [][]int) float64 {
	const maxN = 4
	matches := make([]float64, maxN)
	totals := make([]float64, maxN)
	hypLen, refLen := 0, 0
	for i := range hyps {
		hyp, ref := hyps[i], refs[i]
		hypLen += len(hyp)
		refLen += len(ref)
		for n := 1; n <= maxN; n++ {
			hc := ngramCounts(hyp, n)
			rc := ngramCounts(ref, n)
			for g, c := range hc {
				totals[n-1] += float64(c)
				if r, ok := rc[g]; ok {
					matches[n-1] += math.Min(float64(c), float64(r))
				}
			}
		}
	}
	logSum := 0.0
	for n := 0; n < maxN; n++ {
		if totals[n] == 0 || matches[n] == 0 {
			return 0
		}
		logSum += math.Log(matches[n] / totals[n])
	}
	bp := 1.0
	if hypLen < refLen && hypLen > 0 {
		bp = math.Exp(1 - float64(refLen)/float64(hypLen))
	}
	return bp * math.Exp(logSum/maxN)
}

func ngramCounts(s []int, n int) map[string]int {
	m := make(map[string]int)
	for i := 0; i+n <= len(s); i++ {
		key := ""
		for _, w := range s[i : i+n] {
			key += string(rune(w + 33)) // compact key encoding
		}
		m[key]++
	}
	return m
}

// RougeL computes the Rouge-L F1 score between a hypothesis and a
// reference based on their longest common subsequence.
func RougeL(hyp, ref []int) float64 {
	if len(hyp) == 0 || len(ref) == 0 {
		return 0
	}
	l := float64(lcs(hyp, ref))
	p := l / float64(len(hyp))
	r := l / float64(len(ref))
	if p+r == 0 {
		return 0
	}
	const beta2 = 1.2 * 1.2
	return (1 + beta2) * p * r / (r + beta2*p)
}

func lcs(a, b []int) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = maxInt(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return prev[len(b)]
}

// HRAtK reports whether the true item appears in the top-k of the ranked
// candidate list (Hit Ratio for one evaluation case); callers average it.
func HRAtK(scores []float64, trueIdx, k int) float64 {
	type sc struct {
		i int
		v float64
	}
	cs := make([]sc, len(scores))
	for i, v := range scores {
		cs[i] = sc{i, v}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].v > cs[b].v })
	for j := 0; j < k && j < len(cs); j++ {
		if cs[j].i == trueIdx {
			return 1
		}
	}
	return 0
}

// PrecisionAtK is |retrieved ∩ relevant| / k for ranking evaluation (the
// Learning-to-Rank quality in Table 3).
func PrecisionAtK(retrieved, relevant []int, k int) float64 {
	rel := make(map[int]bool, len(relevant))
	for _, r := range relevant {
		rel[r] = true
	}
	hit := 0
	for i := 0; i < k && i < len(retrieved); i++ {
		if rel[retrieved[i]] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// VoxelIoU is intersection-over-union of two {0,1} occupancy grids given
// a threshold on the prediction.
func VoxelIoU(pred, truth []float64, thresh float64) float64 {
	inter, union := 0, 0
	for i := range pred {
		p := pred[i] >= thresh
		t := truth[i] >= 0.5
		if p && t {
			inter++
		}
		if p || t {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// PixelAccuracy is the fraction of matching entries in two label maps.
func PixelAccuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	ok := 0
	for i := range pred {
		if pred[i] == truth[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
