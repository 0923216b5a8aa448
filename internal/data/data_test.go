package data

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"aibench/internal/tensor"
)

func TestBoxIoU(t *testing.T) {
	a := Box{X: 0, Y: 0, W: 4, H: 4}
	if got := a.IoU(a); got != 1 {
		t.Fatalf("self IoU = %g", got)
	}
	b := Box{X: 2, Y: 2, W: 4, H: 4}
	// intersection 2x2=4, union 16+16-4=28
	if got := a.IoU(b); math.Abs(got-4.0/28) > 1e-12 {
		t.Fatalf("IoU = %g", got)
	}
	c := Box{X: 10, Y: 10, W: 2, H: 2}
	if a.IoU(c) != 0 {
		t.Fatal("disjoint boxes should have IoU 0")
	}
}

func TestBoxIoUSymmetricAndBounded(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := Box{X: int(ax % 8), Y: int(ay % 8), W: 3, H: 4}
		b := Box{X: int(bx % 8), Y: int(by % 8), W: 5, H: 2}
		u, v := a.IoU(b), b.IoU(a)
		return math.Abs(u-v) < 1e-12 && u >= 0 && u <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImageClassificationDeterminismAndSeparation(t *testing.T) {
	d1 := NewImageClassification(7, 4, 1, 6, 6, 0.2)
	d2 := NewImageClassification(7, 4, 1, 6, 6, 0.2)
	l1, l2 := make([]int, 8), make([]int, 8)
	x1, x2 := d1.Batch(nil, l1), d2.Batch(nil, l2)
	if !tensor.AllClose(x1, x2, 0) {
		t.Fatal("same seed should reproduce batches")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("labels differ under same seed")
		}
	}
	// Signal check: samples should be closer to their class prototype than
	// to others (nearest-prototype classification achievable).
	d := NewImageClassification(9, 3, 1, 6, 6, 0.2)
	labels := make([]int, 30)
	x := d.Batch(nil, labels)
	vol := 36
	correct := 0
	for i, lab := range labels {
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < 3; c++ {
			dist := 0.0
			for j := 0; j < vol; j++ {
				diff := x.Data[i*vol+j] - d.prototypes[c].Data[j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == lab {
			correct++
		}
	}
	if correct < 27 {
		t.Fatalf("nearest-prototype accuracy %d/30: generator signal too weak", correct)
	}
}

func TestDistortedBatchKeepsShape(t *testing.T) {
	d := NewImageClassification(3, 4, 1, 8, 8, 0.1)
	labels := make([]int, 5)
	x := d.DistortedBatch(nil, labels, 0.2, 0.2)
	if x.Dim(0) != 5 || len(labels) != 5 {
		t.Fatalf("batch shape %v labels %d", x.Shape(), len(labels))
	}
}

func TestDetectionSceneAnnotationsInBounds(t *testing.T) {
	d := NewDetection(11, 4, 3, 16, 16, 3)
	boxes := make([][]Box, 6)
	x := d.Scene(nil, boxes)
	if x.Dim(0) != 6 {
		t.Fatalf("batch dim %d", x.Dim(0))
	}
	for i, bs := range boxes {
		if len(bs) == 0 {
			t.Fatalf("image %d has no objects", i)
		}
		for _, b := range bs {
			if b.X < 0 || b.Y < 0 || b.X+b.W > 16 || b.Y+b.H > 16 {
				t.Fatalf("box out of bounds: %+v", b)
			}
			if b.Class < 0 || b.Class >= 4 {
				t.Fatalf("bad class %d", b.Class)
			}
		}
	}
}

func TestUnconditionalModes(t *testing.T) {
	d := NewUnconditional(13, 1, 4, 4, 3, 0.05)
	x := d.Real(nil, 20)
	if x.Dim(0) != 20 {
		t.Fatalf("dim %d", x.Dim(0))
	}
	// Every sample should be near one of the 3 mode centers.
	vol := 16
	for i := 0; i < 20; i++ {
		bestDist := math.Inf(1)
		for _, c := range d.centers {
			dist := 0.0
			for j := 0; j < vol; j++ {
				diff := x.Data[i*vol+j] - c.Data[j]
				dist += diff * diff
			}
			if dist < bestDist {
				bestDist = dist
			}
		}
		if bestDist > float64(vol)*0.05*0.05*9 {
			t.Fatalf("sample %d too far from all modes: %g", i, bestDist)
		}
	}
}

func TestPairedDomainsAligned(t *testing.T) {
	d := NewPairedDomains(17, 3, 8, 8, 4)
	a, b := d.Pair(nil, 2)
	if a.Dim(0) != 2 || b.Dim(0) != 2 {
		t.Fatal("batch size mismatch")
	}
	// Segmentation is vertical bands: leftmost and rightmost differ.
	if d.Class(0) == d.Class(7) {
		t.Fatal("expected multiple segmentation classes per row")
	}
}

func TestLanguageTokensInRange(t *testing.T) {
	l := NewLanguage(19, 20)
	s := make([]int, 50)
	l.Sentence(s)
	for _, w := range s {
		if w < FirstWordToken || w >= FirstWordToken+20 {
			t.Fatalf("token %d out of range", w)
		}
	}
}

func TestLanguageIsNotUniform(t *testing.T) {
	// Bigram structure should make some successors much more common.
	l := NewLanguage(23, 10)
	counts := map[[2]int]int{}
	s := make([]int, 4000)
	l.Sentence(s)
	for i := 0; i+1 < len(s); i++ {
		counts[[2]int{s[i], s[i+1]}]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	// Uniform would give ~4000/100 = 40 per bigram; peaked should exceed 3x.
	if maxC < 120 {
		t.Fatalf("max bigram count %d: language looks uniform", maxC)
	}
}

func TestTranslationPairConsistency(t *testing.T) {
	tr := NewTranslation(29, 15, 6)
	src, tgt := make([]int, 6), make([]int, 8)
	tr.Pair(src, tgt)
	if len(src) != 6 {
		t.Fatalf("src len %d", len(src))
	}
	if tgt[0] != BosToken || tgt[len(tgt)-1] != EosToken {
		t.Fatal("target missing BOS/EOS")
	}
	ref := tr.Reference(src)
	for i, w := range ref {
		if tgt[i+1] != w {
			t.Fatalf("reference mismatch at %d", i)
		}
	}
	// The mapping must be a bijection: two different sources with the same
	// length map to different targets unless the sources are equal.
	src2 := make([]int, 6)
	tr.Pair(src2, make([]int, 8))
	same := true
	for i := range src {
		if src[i] != src2[i] {
			same = false
		}
	}
	if !same {
		r1, r2 := tr.Reference(src), tr.Reference(src2)
		diff := false
		for i := range r1 {
			if r1[i] != r2[i] {
				diff = true
			}
		}
		if !diff {
			t.Fatal("different sources gave identical references")
		}
	}
}

func TestSummarizationHeadlineIsSalientSubsequence(t *testing.T) {
	s := NewSummarization(31, 24, 20, 8)
	doc, head := s.Pair()
	if head[0] != BosToken || head[len(head)-1] != EosToken {
		t.Fatal("headline missing BOS/EOS")
	}
	body := head[1 : len(head)-1]
	ref := s.Reference(doc)
	if len(body) != len(ref) {
		t.Fatalf("headline length %d vs reference %d", len(body), len(ref))
	}
	for i := range body {
		if body[i] != ref[i] {
			t.Fatal("headline does not match reference rule")
		}
	}
	for _, w := range body {
		if !s.salient[w] {
			t.Fatalf("non-salient token %d in headline", w)
		}
	}
}

func TestCaptioningClassCaptionBinding(t *testing.T) {
	c := NewCaptioning(37, 5, 1, 6, 6, 12, 4)
	labels, caps := make([]int, 10), make([][]int, 10)
	c.Pair(nil, labels, caps)
	for i, l := range labels {
		want := c.captions[l]
		if len(caps[i]) != len(want) {
			t.Fatal("caption length mismatch")
		}
		for j := range want {
			if caps[i][j] != want[j] {
				t.Fatal("caption does not match class caption")
			}
		}
	}
}

func TestSpeechUtteranceAlignment(t *testing.T) {
	s := NewSpeech(41, 6, 8, 2, 4)
	tokens := make([]int, 5)
	frames, align := s.Utterance(nil, tokens, nil)
	if len(tokens) != 5 {
		t.Fatalf("tokens %d", len(tokens))
	}
	if frames.Dim(0) != len(align) {
		t.Fatalf("frames %d != alignment %d", frames.Dim(0), len(align))
	}
	if frames.Dim(0) < 10 || frames.Dim(0) > 20 {
		t.Fatalf("frame count %d outside duration bounds", frames.Dim(0))
	}
	// Collapsed alignment must equal the token sequence.
	var collapsed []int
	for i, a := range align {
		if i == 0 || align[i-1] != a || true {
			// Only collapse consecutive repeats.
			if i == 0 || align[i-1] != a {
				collapsed = append(collapsed, a)
			}
		}
	}
	// Consecutive distinct tokens may coincide; just check subsequence length bounds.
	if len(collapsed) > len(tokens) {
		t.Fatalf("collapsed %d > tokens %d", len(collapsed), len(tokens))
	}
}

func TestVideoPushingActionMovesBlob(t *testing.T) {
	v := NewVideoPushing(43, 1, 12, 12)
	frames, actions, next := v.Transition(nil, 8)
	if frames.Dim(0) != 8 || next.Dim(0) != 8 || actions.Dim(0) != 8 {
		t.Fatal("batch size mismatch")
	}
	for i := 0; i < 8; i++ {
		if actions.At(i, 0) < -1 || actions.At(i, 0) > 1 {
			t.Fatalf("action out of range: %g", actions.At(i, 0))
		}
	}
	// Frames must contain a blob (nonzero pixels).
	if tensor.Sum(frames) == 0 || tensor.Sum(next) == 0 {
		t.Fatal("empty frames")
	}
}

func TestRatingsEvalCase(t *testing.T) {
	r := NewRatings(47, 10, 30, 4)
	trueItem, cands := r.EvalCase(3, 9)
	if len(cands) != 10 {
		t.Fatalf("candidates %d", len(cands))
	}
	if cands[0] != trueItem {
		t.Fatal("first candidate should be the held-out item")
	}
	if best, _ := r.extremes(3); trueItem != best {
		t.Fatal("held-out item should be the ground-truth best")
	}
	// The true item should have higher affinity than all sampled negatives.
	for _, c := range cands[1:] {
		if r.affinity(3, c) >= r.affinity(3, trueItem) {
			t.Fatal("negative with affinity above the true item")
		}
	}
}

func TestRatingsTrainBatchBalanced(t *testing.T) {
	r := NewRatings(53, 8, 40, 4)
	users, items, labels := make([]int, 20), make([]int, 20), make([]float64, 20)
	r.TrainBatch(users, items, labels)
	if len(users) != 20 || len(items) != 20 {
		t.Fatal("batch size mismatch")
	}
	pos := 0
	for _, l := range labels {
		if l == 1 {
			pos++
		}
	}
	if pos != 10 {
		t.Fatalf("positives %d, want 10", pos)
	}
}

// TestRatingsNoQualifyingItem covers users the rejection samplers can
// never satisfy: with one latent dimension and three items, seed 3 has
// a user with no item above +0.5, one with none below −0.5, and one
// with no negative-affinity item at all. Sampling used to spin forever
// on them; now their extreme item stands in.
func TestRatingsNoQualifyingItem(t *testing.T) {
	r := NewRatings(3, 8, 3, 1)
	noPos, noNeg, allNonNeg := -1, -1, -1
	for u := 0; u < r.Users; u++ {
		hi, lo := r.affinity(u, r.heldOut[u]), r.affinity(u, r.worst[u])
		if hi <= 0.5 {
			noPos = u
		}
		if lo >= -0.5 {
			noNeg = u
		}
		if lo >= 0 {
			allNonNeg = u
		}
	}
	if noPos < 0 || noNeg < 0 || allNonNeg < 0 {
		t.Fatalf("seed no longer produces the degenerate users (noPos=%d noNeg=%d allNonNeg=%d)", noPos, noNeg, allNonNeg)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		users, items, labels := make([]int, 256), make([]int, 256), make([]float64, 256)
		r.TrainBatch(users, items, labels)
		for k, u := range users {
			a := r.affinity(u, items[k])
			switch {
			case labels[k] == 1 && a <= 0.5 && items[k] != r.heldOut[u]:
				t.Errorf("user %d positive %d: affinity %g is neither past +0.5 nor the user's best", u, items[k], a)
			case labels[k] == 0 && a >= -0.5 && items[k] != r.worst[u]:
				t.Errorf("user %d negative %d: affinity %g is neither past −0.5 nor the user's worst", u, items[k], a)
			}
		}
		_, cands := r.EvalCase(allNonNeg, 5)
		if len(cands) != 6 {
			t.Errorf("EvalCase returned %d candidates, want 6", len(cands))
		}
		for _, c := range cands[1:] {
			if c != r.worst[allNonNeg] {
				t.Errorf("EvalCase negative %d, want the lowest-affinity item %d", c, r.worst[allNonNeg])
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sampling did not terminate")
	}
}

func TestCheckinsBPRTripleOrdering(t *testing.T) {
	c := NewCheckins(59, 6, 25, 4)
	users, pos, neg := make([]int, 30), make([]int, 30), make([]int, 30)
	c.BPRTriple(users, pos, neg)
	for k := range users {
		if c.affinity(users[k], pos[k]) < c.affinity(users[k], neg[k]) {
			t.Fatal("BPR triple violates preference order")
		}
	}
}

// TestDrawsIntoReusedBuffers: every draw, into an arena it shares
// with every other draw and into buffers the caller reuses — both dirty
// with the previous draw and poisoned, the arena by its Reset and the
// buffers by poisonBuffers — yields bit for bit what a twin generator
// draws onto the heap (a nil arena) and into fresh buffers, call after
// call. A draw that takes unspecified memory (Arena.Take) for an
// element it leaves unwritten reads NaN here, and one that leaves an
// element of a slice buffer unwritten, or appends to it without
// truncating it first, returns the poison.
func TestDrawsIntoReusedBuffers(t *testing.T) {
	defer tensor.SetArenaResetMode(tensor.SetArenaResetMode(tensor.ResetPoison))
	// A draw is a function of its arena and of whether to make fresh
	// buffers; each row builds two, over twin generators.
	type draw func(a *tensor.Arena, fresh bool) []any
	rows := []struct {
		name string
		twin func() draw
	}{
		{"Speech.Utterance", func() draw {
			s := NewSpeech(3, 6, 5, 2, 4)
			tokens, align := make([]int, 5), []int(nil)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					tokens, align = make([]int, 5), nil
				}
				var frames *tensor.Tensor
				frames, align = s.Utterance(a, tokens, align)
				return []any{frames, tokens, align}
			}
		}},
		{"VideoPushing.Transition", func() draw {
			v := NewVideoPushing(5, 2, 9, 10)
			return func(a *tensor.Arena, _ bool) []any {
				frames, actions, next := v.Transition(a, 3)
				return []any{frames, actions, next}
			}
		}},
		{"ImageClassification.Batch", func() draw {
			d := NewImageClassification(41, 5, 2, 4, 3, 0.4)
			labels := make([]int, 6)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					labels = make([]int, 6)
				}
				return []any{d.Batch(a, labels), labels}
			}
		}},
		{"ImageClassification.DistortedBatch", func() draw {
			d := NewImageClassification(43, 4, 1, 8, 8, 0.1)
			labels := make([]int, 5)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					labels = make([]int, 5)
				}
				return []any{d.DistortedBatch(a, labels, 0.25, 0.3), labels}
			}
		}},
		{"Detection.Scene", func() draw {
			d := NewDetection(11, 4, 3, 16, 16, 3)
			boxes := make([][]Box, 4)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					boxes = make([][]Box, 4)
				}
				return []any{d.Scene(a, boxes), boxes}
			}
		}},
		{"Unconditional.Real", func() draw {
			d := NewUnconditional(13, 1, 4, 4, 3, 0.05)
			return func(a *tensor.Arena, _ bool) []any { return []any{d.Real(a, 5)} }
		}},
		{"PairedDomains.Pair", func() draw {
			d := NewPairedDomains(17, 3, 6, 8, 4)
			return func(a *tensor.Arena, _ bool) []any {
				x, y := d.Pair(a, 2)
				return []any{x, y}
			}
		}},
		{"Captioning.Pair", func() draw {
			c := NewCaptioning(37, 5, 1, 6, 6, 12, 4)
			labels, caps := make([]int, 7), make([][]int, 7)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					labels, caps = make([]int, 7), make([][]int, 7)
				}
				return []any{c.Pair(a, labels, caps), labels, caps}
			}
		}},
		{"Shapes3D.Sample", func() draw {
			s := NewShapes3D(67, 8, 2, 8, 8, 3)
			return func(a *tensor.Arena, _ bool) []any {
				views, voxels := s.Sample(a, 3)
				return []any{views, voxels}
			}
		}},
		{"Faces.Sample", func() draw {
			f := NewFaces(71, 5, 2, 6, 6, 0.2)
			id := 0
			return func(a *tensor.Arena, _ bool) []any {
				id = (id + 2) % 5
				return []any{f.Sample(a, id)}
			}
		}},
		{"Faces.Batch", func() draw {
			f := NewFaces(73, 5, 4, 6, 6, 0.3)
			labels := make([]int, 6)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					labels = make([]int, 6)
				}
				return []any{f.Batch(a, labels), labels}
			}
		}},
		{"Faces.Triplets", func() draw {
			f := NewFaces(79, 3, 1, 6, 6, 0.2)
			return func(a *tensor.Arena, _ bool) []any {
				x, p, n := f.Triplets(a, 4)
				return []any{x, p, n}
			}
		}},
		{"Faces.VerificationPairs", func() draw {
			f := NewFaces(83, 4, 1, 6, 6, 0.2)
			same := make([]bool, 7)
			return func(a *tensor.Arena, fresh bool) []any {
				if fresh {
					same = make([]bool, 7)
				}
				x, y := f.VerificationPairs(a, same)
				return []any{x, y, same}
			}
		}},
		{"Language.Sentence", func() draw {
			l := NewLanguage(19, 20)
			s := make([]int, 9)
			return func(_ *tensor.Arena, fresh bool) []any {
				if fresh {
					s = make([]int, 9)
				}
				l.Sentence(s)
				return []any{s}
			}
		}},
		{"Translation.Pair", func() draw {
			tr := NewTranslation(31, 15, 6)
			src, tgt := make([]int, 6), make([]int, 8)
			return func(_ *tensor.Arena, fresh bool) []any {
				if fresh {
					src, tgt = make([]int, 6), make([]int, 8)
				}
				tr.Pair(src, tgt)
				return []any{src, tgt}
			}
		}},
		{"Ratings.TrainBatch", func() draw {
			r := NewRatings(53, 8, 40, 4)
			users, items, labels := make([]int, 9), make([]int, 9), make([]float64, 9)
			return func(_ *tensor.Arena, fresh bool) []any {
				if fresh {
					users, items, labels = make([]int, 9), make([]int, 9), make([]float64, 9)
				}
				r.TrainBatch(users, items, labels)
				return []any{users, items, labels}
			}
		}},
		{"Checkins.BPRTriple", func() draw {
			c := NewCheckins(37, 6, 25, 4)
			users, pos, neg := make([]int, 9), make([]int, 9), make([]int, 9)
			return func(_ *tensor.Arena, fresh bool) []any {
				if fresh {
					users, pos, neg = make([]int, 9), make([]int, 9), make([]int, 9)
				}
				c.BPRTriple(users, pos, neg)
				return []any{users, pos, neg}
			}
		}},
	}
	var arena tensor.Arena
	for _, row := range rows {
		heap, reused := row.twin(), row.twin()
		var got []any
		for call := range 4 {
			want := heap(nil, true)
			arena.Reset()
			poisonBuffers(got)
			got = reused(&arena, false)
			for i, v := range got {
				if x, ok := v.(*tensor.Tensor); ok && tensor.StepArenaOf(x) != &arena {
					t.Errorf("%s call %d: tensor %d is not drawn from the arena it was given", row.name, call, i)
				}
				if x, ok := want[i].(*tensor.Tensor); ok && tensor.StepArenaOf(x) != nil {
					t.Errorf("%s call %d: tensor %d of a nil-arena draw is not on the heap", row.name, call, i)
				}
			}
			if g, w := drawnWords(got), drawnWords(want); !slices.Equal(g, w) {
				t.Fatalf("%s call %d: a draw into a reused arena and buffers is not the heap draw into fresh ones:\n got %v\nwant %v", row.name, call, got, want)
			}
		}
	}
}

// poisonBuffers overwrites the slices a draw returned — the buffers its
// next call reuses — with values no draw makes: MinInt, NaN, true, nil
// captions and one bogus box per image.
func poisonBuffers(vs []any) {
	for _, v := range vs {
		switch v := v.(type) {
		case []int:
			for i := range v {
				v[i] = math.MinInt
			}
		case []float64:
			for i := range v {
				v[i] = math.NaN()
			}
		case []bool:
			for i := range v {
				v[i] = true
			}
		case [][]int:
			clear(v)
		case [][]Box:
			for i := range v {
				v[i] = append(v[i][:0], Box{X: -1, Y: -1, W: -1, H: -1, Class: -1})
			}
		}
	}
}

// drawnWords flattens what a draw returned into comparable words, each
// value prefixed by its length: a tensor's shape and float bits, a
// slice's elements, a slice of slices element by element.
func drawnWords(vs []any) []uint64 {
	var out []uint64
	for _, v := range vs {
		switch v := v.(type) {
		case *tensor.Tensor:
			out = append(out, uint64(v.Rank()))
			for _, d := range v.Shape() {
				out = append(out, uint64(d))
			}
			for _, f := range v.Data {
				out = append(out, math.Float64bits(f))
			}
		case []int:
			out = append(out, uint64(len(v)))
			for _, x := range v {
				out = append(out, uint64(x))
			}
		case []float64:
			out = append(out, uint64(len(v)))
			for _, f := range v {
				out = append(out, math.Float64bits(f))
			}
		case []bool:
			out = append(out, uint64(len(v)))
			for _, b := range v {
				if b {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		case [][]int:
			out = append(out, uint64(len(v)))
			for _, s := range v {
				out = append(out, drawnWords([]any{s})...)
			}
		case [][]Box:
			out = append(out, uint64(len(v)))
			for _, bs := range v {
				out = append(out, uint64(len(bs)))
				for _, b := range bs {
					out = append(out, uint64(b.X), uint64(b.Y), uint64(b.W), uint64(b.H), uint64(b.Class))
				}
			}
		default:
			panic(fmt.Sprintf("drawnWords: unhandled %T", v))
		}
	}
	return out
}

func TestCheckinsTopK(t *testing.T) {
	c := NewCheckins(61, 4, 20, 3)
	top := c.TopK(1, 5)
	if len(top) != 5 {
		t.Fatalf("topk %d", len(top))
	}
	// Every returned item must beat every non-returned item.
	inTop := map[int]bool{}
	for _, i := range top {
		inTop[i] = true
	}
	worstTop := math.Inf(1)
	for _, i := range top {
		if v := c.affinity(1, i); v < worstTop {
			worstTop = v
		}
	}
	for i := 0; i < 20; i++ {
		if !inTop[i] && c.affinity(1, i) > worstTop+1e-12 {
			t.Fatal("TopK missed a better item")
		}
	}
}

func TestShapes3DProjectionConsistency(t *testing.T) {
	s := NewShapes3D(67, 8, 1, 8, 8, 3)
	views, voxels := s.Sample(nil, 4)
	if views.Dim(0) != 4 || voxels.Dim(0) != 4 {
		t.Fatal("batch mismatch")
	}
	// Where the silhouette is bright, some voxel in that column must be
	// occupied (within noise tolerance).
	for i := 0; i < 4; i++ {
		occupied := tensor.Sum(voxels.SliceRows(i, i+1))
		if occupied == 0 {
			t.Fatalf("sample %d has empty voxel grid", i)
		}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := views.At(i, 0, y, x)
				if v > 0.5 {
					col := 0.0
					for z := 0; z < 8; z++ {
						col += voxels.At(i, z, y, x)
					}
					if col == 0 {
						t.Fatalf("bright pixel (%d,%d) with empty voxel column", y, x)
					}
				}
			}
		}
	}
}

func TestFacesTripletsAndVerification(t *testing.T) {
	f := NewFaces(71, 5, 1, 6, 6, 0.2)
	a, p, n := f.Triplets(nil, 6)
	if a.Dim(0) != 6 || p.Dim(0) != 6 || n.Dim(0) != 6 {
		t.Fatal("triplet batch mismatch")
	}
	same := make([]bool, 10)
	va, vb := f.VerificationPairs(nil, same)
	if va.Dim(0) != 10 || vb.Dim(0) != 10 {
		t.Fatal("verification batch mismatch")
	}
	trues := 0
	for _, s := range same {
		if s {
			trues++
		}
	}
	if trues != 5 {
		t.Fatalf("same pairs %d, want 5", trues)
	}
	// Same-identity pairs should be closer than different-identity pairs
	// on average.
	vol := 36
	var dSame, dDiff float64
	for i := 0; i < 10; i++ {
		dist := 0.0
		for j := 0; j < vol; j++ {
			diff := va.Data[i*vol+j] - vb.Data[i*vol+j]
			dist += diff * diff
		}
		if same[i] {
			dSame += dist
		} else {
			dDiff += dist
		}
	}
	if dSame >= dDiff {
		t.Fatalf("same-pair distance %g >= diff-pair distance %g", dSame, dDiff)
	}
}
