package data

import (
	"math"
	"math/rand"

	"aibench/internal/tensor"
)

// ImageClassification generates class-conditional images: each class has a
// fixed random prototype pattern; samples are the prototype plus Gaussian
// noise. This is the synthetic ImageNet / MNIST stand-in: a CNN must
// learn the class templates through the same conv/bn/relu/pool code path
// the real dataset exercises.
type ImageClassification struct {
	Classes    int
	C, H, W    int
	Noise      float64
	prototypes []*tensor.Tensor
	rng        *rand.Rand
}

// NewImageClassification builds a generator with the given geometry.
func NewImageClassification(seed int64, classes, c, h, w int, noise float64) *ImageClassification {
	rng := NewRNG(seed)
	protos := make([]*tensor.Tensor, classes)
	for i := range protos {
		protos[i] = tensor.Randn(rng, 0, 1, c, h, w)
	}
	return &ImageClassification{
		Classes: classes, C: c, H: h, W: w,
		Noise: noise, prototypes: protos, rng: rng,
	}
}

// Batch draws len(labels) labeled samples: the images [n, C, H, W]
// come from a (nil: the heap) and their classes go to labels.
func (d *ImageClassification) Batch(a *tensor.Arena, labels []int) *tensor.Tensor {
	x := a.Take(len(labels), d.C, d.H, d.W)
	vol := d.C * d.H * d.W
	for i := range labels {
		cls := d.rng.Intn(d.Classes)
		labels[i] = cls
		for j := 0; j < vol; j++ {
			x.Data[i*vol+j] = d.prototypes[cls].Data[j] + d.Noise*d.rng.NormFloat64()
		}
	}
	return x
}

// DistortedBatch draws labeled samples with a random affine distortion
// applied — the Spatial Transformer workload's input, where the model
// must learn to undo the warp before classifying. Like Batch, it draws
// len(labels) samples from a; the warp leaves the pixels it maps from
// outside the image at zero.
func (d *ImageClassification) DistortedBatch(a *tensor.Arena, labels []int, maxShift, maxScale float64) *tensor.Tensor {
	x := d.Batch(a, labels)
	out := a.New(len(labels), d.C, d.H, d.W)
	for i := range labels {
		sx := 1 + (d.rng.Float64()*2-1)*maxScale
		sy := 1 + (d.rng.Float64()*2-1)*maxScale
		tx := (d.rng.Float64()*2 - 1) * maxShift
		ty := (d.rng.Float64()*2 - 1) * maxShift
		d.warpInto(out, x, i, sx, sy, tx, ty)
	}
	return out
}

// warpInto applies a nearest-neighbour affine warp of sample i.
func (d *ImageClassification) warpInto(dst, src *tensor.Tensor, i int, sx, sy, tx, ty float64) {
	h, w := d.H, d.W
	for c := 0; c < d.C; c++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				// Normalized target coords.
				ny := 2*float64(y)/float64(h-1) - 1
				nx := 2*float64(x)/float64(w-1) - 1
				syv := ny*sy + ty
				sxv := nx*sx + tx
				iy := int(math.Round((syv + 1) / 2 * float64(h-1)))
				ix := int(math.Round((sxv + 1) / 2 * float64(w-1)))
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					dst.Set(src.At(i, c, iy, ix), i, c, y, x)
				}
			}
		}
	}
}

// Detection generates VOC-style scenes: a background plus 1..MaxObjects
// rectangular objects whose interior carries a class-specific texture,
// annotated with ground-truth boxes.
type Detection struct {
	Classes    int
	C, H, W    int
	MaxObjects int
	textures   []*tensor.Tensor
	rng        *rand.Rand
}

// NewDetection builds a detection-scene generator.
func NewDetection(seed int64, classes, c, h, w, maxObjects int) *Detection {
	rng := NewRNG(seed)
	tex := make([]*tensor.Tensor, classes)
	for i := range tex {
		tex[i] = tensor.Randn(rng, float64(i+1), 0.3, c)
	}
	return &Detection{Classes: classes, C: c, H: h, W: w, MaxObjects: maxObjects, textures: tex, rng: rng}
}

// Scene draws len(boxes) annotated images from a: image i's boxes
// replace boxes[i], reusing its storage.
func (d *Detection) Scene(a *tensor.Arena, boxes [][]Box) *tensor.Tensor {
	x := a.Take(len(boxes), d.C, d.H, d.W)
	for i := range x.Data {
		x.Data[i] = 0.2 * d.rng.NormFloat64()
	}
	minSize := d.H / 4
	for i := range boxes {
		boxes[i] = boxes[i][:0]
		objs := 1 + d.rng.Intn(d.MaxObjects)
		for o := 0; o < objs; o++ {
			// Rejection-sample a placement that does not occlude earlier
			// objects (real VOC scenes rarely have near-total overlap and
			// occluded ground truth would cap achievable mAP).
			var b Box
			placed := false
			for try := 0; try < 10; try++ {
				bw := minSize + d.rng.Intn(d.W/2-minSize+1)
				bh := minSize + d.rng.Intn(d.H/2-minSize+1)
				b = Box{
					X: d.rng.Intn(d.W - bw), Y: d.rng.Intn(d.H - bh),
					W: bw, H: bh, Class: d.rng.Intn(d.Classes),
				}
				ok := true
				for _, prev := range boxes[i] {
					if b.IoU(prev) > 0.1 {
						ok = false
						break
					}
				}
				if ok {
					placed = true
					break
				}
			}
			if !placed {
				continue
			}
			for c := 0; c < d.C; c++ {
				v := d.textures[b.Class].Data[c]
				for y := b.Y; y < b.Y+b.H; y++ {
					for xx := b.X; xx < b.X+b.W; xx++ {
						x.Set(v+0.1*d.rng.NormFloat64(), i, c, y, xx)
					}
				}
			}
			boxes[i] = append(boxes[i], b)
		}
	}
	return x
}

// Unconditional generates images from a mixture of K Gaussian modes in
// image space — the LSUN-Bedrooms stand-in for the WGAN workload. The
// generator must learn to cover the modes; Earth-Mover distance to the
// real distribution is measurable from samples.
type Unconditional struct {
	C, H, W int
	Modes   int
	centers []*tensor.Tensor
	Spread  float64
	rng     *rand.Rand
}

// NewUnconditional builds the mixture sampler.
func NewUnconditional(seed int64, c, h, w, modes int, spread float64) *Unconditional {
	rng := NewRNG(seed)
	centers := make([]*tensor.Tensor, modes)
	for i := range centers {
		centers[i] = tensor.Randn(rng, 0, 1, c, h, w)
	}
	return &Unconditional{C: c, H: h, W: w, Modes: modes, centers: centers, Spread: spread, rng: rng}
}

// Real draws n samples from the target distribution, from a.
func (d *Unconditional) Real(a *tensor.Arena, n int) *tensor.Tensor {
	vol := d.C * d.H * d.W
	x := a.Take(n, d.C, d.H, d.W)
	for i := 0; i < n; i++ {
		m := d.centers[d.rng.Intn(d.Modes)]
		for j := 0; j < vol; j++ {
			x.Data[i*vol+j] = m.Data[j] + d.Spread*d.rng.NormFloat64()
		}
	}
	return x
}

// PairedDomains generates aligned samples from two visual domains — the
// Cityscapes photo↔label stand-in for CycleGAN. Domain A applies style
// transform A to a shared latent scene; domain B applies transform B.
// The underlying scene's per-pixel class labels (Class) are what the
// CycleGAN evaluation metrics (per-pixel accuracy, class IoU) score
// against.
type PairedDomains struct {
	C, H, W  int
	SegClass int
	styleA   *tensor.Tensor
	styleB   *tensor.Tensor
	rng      *rand.Rand
}

// NewPairedDomains builds the paired-domain sampler.
func NewPairedDomains(seed int64, c, h, w, segClasses int) *PairedDomains {
	rng := NewRNG(seed)
	return &PairedDomains{
		C: c, H: h, W: w, SegClass: segClasses,
		styleA: tensor.Randn(rng, 1, 0.2, c),
		styleB: tensor.Randn(rng, -1, 0.2, c),
		rng:    rng,
	}
}

// Pair draws n aligned (A, B) pairs from ar. Their scene's
// segmentation is Class.
func (d *PairedDomains) Pair(ar *tensor.Arena, n int) (a, b *tensor.Tensor) {
	a = ar.Take(n, d.C, d.H, d.W)
	b = ar.Take(n, d.C, d.H, d.W)
	for i := 0; i < n; i++ {
		for y := 0; y < d.H; y++ {
			for x := 0; x < d.W; x++ {
				base := float64(d.Class(x))/float64(d.SegClass) - 0.5
				for c := 0; c < d.C; c++ {
					noise := 0.05 * d.rng.NormFloat64()
					a.Set(base*d.styleA.Data[c]+noise, i, c, y, x)
					b.Set(base*d.styleB.Data[c]+noise, i, c, y, x)
				}
			}
		}
	}
	return a, b
}

// Class is the segmentation class of pixel column x in every drawn
// scene: the latent scene is vertical bands of classes.
func (d *PairedDomains) Class(x int) int { return (x * d.SegClass) / d.W }
