package data

import (
	"math/rand"

	"aibench/internal/tensor"
)

// Speech generates spectrogram-like feature sequences from token strings:
// each token of the (phoneme) vocabulary maps to a fixed spectral frame
// prototype, repeated for a random duration and corrupted with noise —
// the LibriSpeech stand-in for the DeepSpeech2 workload. The model must
// recover the token sequence from the frames.
type Speech struct {
	Vocab      int
	Features   int
	MinDur     int
	MaxDur     int
	prototypes []*tensor.Tensor
	rng        *rand.Rand
}

// NewSpeech builds a generator with the given phoneme vocabulary and
// frame feature size.
func NewSpeech(seed int64, vocab, features, minDur, maxDur int) *Speech {
	rng := NewRNG(seed)
	protos := make([]*tensor.Tensor, vocab)
	for i := range protos {
		protos[i] = tensor.Randn(rng, 0, 1, features)
	}
	return &Speech{
		Vocab: vocab, Features: features,
		MinDur: minDur, MaxDur: maxDur,
		prototypes: protos, rng: rng,
	}
}

// Utterance samples a string of len(tokenSeq) tokens into tokenSeq
// and its frame matrix [T, Features] from a. It also returns the
// per-frame token alignment, written over alignment's storage, so
// scaled models can train framewise (the CTC-free simplification). The
// frames are a view of the first T rows of a len(tokenSeq)·MaxDur-row
// matrix, so every utterance of a token count takes the same arena
// footprint, whatever its durations.
func (s *Speech) Utterance(a *tensor.Arena, tokenSeq, alignment []int) (*tensor.Tensor, []int) {
	frames := a.Take(len(tokenSeq)*s.MaxDur, s.Features)
	alignment = alignment[:0]
	for i := range tokenSeq {
		tok := s.rng.Intn(s.Vocab)
		tokenSeq[i] = tok
		dur := s.MinDur + s.rng.Intn(s.MaxDur-s.MinDur+1)
		for d := 0; d < dur; d++ {
			frame := frames.Data[len(alignment)*s.Features:]
			for f := 0; f < s.Features; f++ {
				frame[f] = s.prototypes[tok].Data[f] + 0.3*s.rng.NormFloat64()
			}
			alignment = append(alignment, tok)
		}
	}
	return frames.SliceRows(0, len(alignment)), alignment
}

// VideoPushing generates robot-pushing-style frame transitions: an object
// blob at position p moves by an action vector a; the model must predict
// the next frame from (frame, action) — the Robot Pushing stand-in for
// the Video Prediction workload.
type VideoPushing struct {
	C, H, W int
	rng     *rand.Rand
}

// NewVideoPushing builds the generator.
func NewVideoPushing(seed int64, c, h, w int) *VideoPushing {
	return &VideoPushing{C: c, H: h, W: w, rng: NewRNG(seed)}
}

// Transition samples n (frame, action, nextFrame) triples from a.
// Actions are [n, 2] pixel displacement vectors scaled to [-1, 1].
func (v *VideoPushing) Transition(a *tensor.Arena, n int) (frames, actions, next *tensor.Tensor) {
	frames = a.New(n, v.C, v.H, v.W)
	next = a.New(n, v.C, v.H, v.W)
	actions = a.Take(n, 2)
	maxMove := 2
	for i := 0; i < n; i++ {
		// Object position with margin so the moved object stays in frame.
		px := maxMove + v.rng.Intn(v.W-2*maxMove-2)
		py := maxMove + v.rng.Intn(v.H-2*maxMove-2)
		dx := v.rng.Intn(2*maxMove+1) - maxMove
		dy := v.rng.Intn(2*maxMove+1) - maxMove
		actions.Set(float64(dx)/float64(maxMove), i, 0)
		actions.Set(float64(dy)/float64(maxMove), i, 1)
		v.drawBlob(frames, i, px, py)
		v.drawBlob(next, i, px+dx, py+dy)
	}
	return frames, actions, next
}

func (v *VideoPushing) drawBlob(t *tensor.Tensor, i, px, py int) {
	for c := 0; c < v.C; c++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				y, x := py+dy, px+dx
				if y >= 0 && y < v.H && x >= 0 && x < v.W {
					t.Set(1, i, c, y, x)
				}
			}
		}
	}
}
