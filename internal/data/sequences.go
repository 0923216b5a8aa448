package data

import (
	"math/rand"

	"aibench/internal/tensor"
)

// Language is a synthetic first-order Markov language over a finite
// vocabulary. It is the building block for the WMT, Gigaword, and PTB
// stand-ins: sentences carry learnable sequential structure.
type Language struct {
	Vocab int
	trans [][]float64 // cumulative transition rows
	rng   *rand.Rand
}

// NewLanguage builds a Markov language with a sparse, peaked transition
// structure (each word strongly prefers a handful of successors, like
// natural-language bigram statistics).
func NewLanguage(seed int64, vocab int) *Language {
	rng := NewRNG(seed)
	trans := make([][]float64, vocab)
	for w := range trans {
		probs := make([]float64, vocab)
		// A few preferred successors get most of the mass.
		total := 0.0
		for k := 0; k < 3; k++ {
			probs[rng.Intn(vocab)] += 1.0
		}
		for j := range probs {
			probs[j] += 0.05
			total += probs[j]
		}
		cum := make([]float64, vocab)
		acc := 0.0
		for j := range probs {
			acc += probs[j] / total
			cum[j] = acc
		}
		trans[w] = cum
	}
	return &Language{Vocab: vocab, trans: trans, rng: rng}
}

// Sentence samples a sentence of len(s) content-token ids in
// [FirstWordToken, FirstWordToken+Vocab) into s. A contiguous stretch
// of the language is also the token stream of the language-modeling
// workloads (the PTB stand-in).
func (l *Language) Sentence(s []int) {
	w := l.rng.Intn(l.Vocab)
	for i := range s {
		s[i] = FirstWordToken + w
		w = l.next(w)
	}
}

func (l *Language) next(w int) int {
	u := l.rng.Float64()
	cum := l.trans[w]
	for j, c := range cum {
		if u <= c {
			return j
		}
	}
	return l.Vocab - 1
}

// Translation generates parallel sentence pairs: the target is the source
// mapped through a fixed token permutation and reversed — a determinate
// "language" an encoder-decoder must learn end to end (the WMT
// English-German stand-in).
type Translation struct {
	Lang    *Language
	mapping []int
	SrcLen  int
}

// NewTranslation builds the parallel-corpus generator over the given
// vocabulary size.
func NewTranslation(seed int64, vocab, srcLen int) *Translation {
	l := NewLanguage(seed, vocab)
	rng := NewRNG(seed + 1)
	mapping := rng.Perm(vocab)
	return &Translation{Lang: l, mapping: mapping, SrcLen: srcLen}
}

// Pair samples one (source, target) sentence pair into src, SrcLen
// tokens, and tgt, two more: the target includes BOS/EOS framing for
// teacher-forced decoding.
func (t *Translation) Pair(src, tgt []int) {
	t.Lang.Sentence(src)
	tgt[0], tgt[len(src)+1] = BosToken, EosToken
	for i, w := range src {
		// Reverse order and map tokens.
		tgt[len(src)-i] = FirstWordToken + t.mapping[w-FirstWordToken]
	}
}

// TotalVocab returns the full vocabulary size including special tokens.
func (t *Translation) TotalVocab() int { return t.Lang.Vocab + FirstWordToken }

// Reference translates src with the generator's ground-truth rule; used
// to score BLEU against model output.
func (t *Translation) Reference(src []int) []int {
	body := make([]int, len(src))
	for i, w := range src {
		body[len(src)-1-i] = FirstWordToken + t.mapping[w-FirstWordToken]
	}
	return body
}

// Summarization generates (document, headline) pairs: the headline is the
// sequence of "salient" tokens — those from a designated salient subset
// of the vocabulary, in order of appearance (the Gigaword stand-in).
type Summarization struct {
	Lang    *Language
	salient map[int]bool
	DocLen  int
	MaxHead int
}

// NewSummarization builds the generator; fraction of the vocabulary is
// marked salient.
func NewSummarization(seed int64, vocab, docLen, maxHead int) *Summarization {
	l := NewLanguage(seed, vocab)
	rng := NewRNG(seed + 2)
	salient := make(map[int]bool)
	for len(salient) < vocab/4 {
		salient[FirstWordToken+rng.Intn(vocab)] = true
	}
	return &Summarization{Lang: l, salient: salient, DocLen: docLen, MaxHead: maxHead}
}

// Pair samples one (document, headline) pair with BOS/EOS framing on the
// headline.
func (s *Summarization) Pair() (doc, head []int) {
	doc = make([]int, s.DocLen)
	s.Lang.Sentence(doc)
	head = []int{BosToken}
	for _, w := range doc {
		if s.salient[w] && len(head) < s.MaxHead+1 {
			head = append(head, w)
		}
	}
	head = append(head, EosToken)
	return doc, head
}

// TotalVocab returns the vocabulary size including special tokens.
func (s *Summarization) TotalVocab() int { return s.Lang.Vocab + FirstWordToken }

// Reference returns the ground-truth headline body for a document.
func (s *Summarization) Reference(doc []int) []int {
	var head []int
	for _, w := range doc {
		if s.salient[w] && len(head) < s.MaxHead {
			head = append(head, w)
		}
	}
	return head
}

// Captioning generates (image, caption) pairs: the image contains a
// class-conditional pattern and the caption is a short token sequence
// deterministically describing that class (the MS-COCO stand-in for the
// Image-to-Text workload).
type Captioning struct {
	Images   *ImageClassification
	captions [][]int
	CapLen   int
}

// NewCaptioning builds the generator: one fixed caption per class,
// sampled from the language.
func NewCaptioning(seed int64, classes, c, h, w, vocab, capLen int) *Captioning {
	imgs := NewImageClassification(seed, classes, c, h, w, 0.3)
	lang := NewLanguage(seed+3, vocab)
	caps := make([][]int, classes)
	for i := range caps {
		caps[i] = make([]int, capLen+2)
		caps[i][0], caps[i][capLen+1] = BosToken, EosToken
		lang.Sentence(caps[i][1 : capLen+1])
	}
	return &Captioning{Images: imgs, captions: caps, CapLen: capLen}
}

// Pair samples a batch of len(labels) images from a, their classes
// into labels and their captions into captions, which is as long.
func (c *Captioning) Pair(a *tensor.Arena, labels []int, captions [][]int) *tensor.Tensor {
	x := c.Images.Batch(a, labels)
	for i, l := range labels {
		captions[i] = c.captions[l]
	}
	return x
}
