// Package data provides seeded synthetic dataset generators standing in
// for the datasets the paper trains on (ImageNet, VOC2007, LSUN, COCO,
// LibriSpeech, VGGFace2, MovieLens, Gowalla, WMT, Gigaword, MNIST,
// ShapeNet, Robot-Pushing, Cityscapes, PTB, and the Intellifusion RGB-D
// set). Each generator produces data with the modality, tensor layout,
// and statistical structure of its real counterpart, scaled down so the
// pure-Go substrate can train on it, and with enough signal that the
// scaled models reach their scaled quality targets.
//
// All generators are deterministic given their seed, which is what makes
// the run-to-run variation experiments (Table 5) controllable.
package data

import (
	"math/rand"
)

// Box is an axis-aligned ground-truth object annotation in pixel
// coordinates (VOC-style), with a class label.
type Box struct {
	X, Y, W, H int
	Class      int
}

// IoU computes intersection-over-union between two boxes.
func (b Box) IoU(o Box) float64 {
	x1 := maxInt(b.X, o.X)
	y1 := maxInt(b.Y, o.Y)
	x2 := minInt(b.X+b.W, o.X+o.W)
	y2 := minInt(b.Y+b.H, o.Y+o.H)
	iw, ih := x2-x1, y2-y1
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := float64(iw * ih)
	union := float64(b.W*b.H+o.W*o.H) - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SpecialTokens used by all sequence generators.
const (
	PadToken = 0
	BosToken = 1
	EosToken = 2
	// FirstWordToken is the first id available for content words.
	FirstWordToken = 3
)
