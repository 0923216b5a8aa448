package data

import (
	"math/rand"

	"aibench/internal/tensor"
)

// Shapes3D generates (rendered view, voxel grid) pairs of simple solids —
// the ShapeNet stand-in for the 3D Object Reconstruction workload. The
// view is an orthographic silhouette of the voxel occupancy; the model
// must learn to invert the projection.
type Shapes3D struct {
	D       int // voxel grid resolution (D×D×D)
	C, H, W int // rendered view geometry
	Kinds   int
	rng     *rand.Rand
}

// NewShapes3D builds the generator; kinds selects how many primitive
// shape families are sampled (boxes, spheres, crosses, ...).
func NewShapes3D(seed int64, d, c, h, w, kinds int) *Shapes3D {
	return &Shapes3D{D: d, C: c, H: h, W: w, Kinds: kinds, rng: NewRNG(seed)}
}

// Sample draws n (view, voxels) pairs from a. Voxels have shape
// [n, D, D, D] with {0,1} occupancy; views have shape [n, C, H, W].
func (s *Shapes3D) Sample(a *tensor.Arena, n int) (views, voxels *tensor.Tensor) {
	views = a.Take(n, s.C, s.H, s.W)
	voxels = a.New(n, s.D, s.D, s.D)
	for i := 0; i < n; i++ {
		kind := s.rng.Intn(s.Kinds)
		s.fillSolid(voxels, i, kind)
		s.render(views, voxels, i)
	}
	return views, voxels
}

// fillSolid writes a randomly sized primitive of the given kind.
func (s *Shapes3D) fillSolid(v *tensor.Tensor, i, kind int) {
	d := s.D
	size := 2 + s.rng.Intn(d/2)
	ox := s.rng.Intn(d - size)
	oy := s.rng.Intn(d - size)
	oz := s.rng.Intn(d - size)
	half := size / 2
	cx, cy, cz := ox+half, oy+half, oz+half
	for z := 0; z < d; z++ {
		for y := 0; y < d; y++ {
			for x := 0; x < d; x++ {
				in := false
				switch kind % 3 {
				case 0: // box
					in = x >= ox && x < ox+size && y >= oy && y < oy+size && z >= oz && z < oz+size
				case 1: // sphere
					dx, dy, dz := x-cx, y-cy, z-cz
					in = dx*dx+dy*dy+dz*dz <= half*half+1
				case 2: // axis cross
					in = (x >= ox && x < ox+size && y == cy && z == cz) ||
						(y >= oy && y < oy+size && x == cx && z == cz) ||
						(z >= oz && z < oz+size && x == cx && y == cy)
				}
				if in {
					v.Set(1, i, z, y, x)
				}
			}
		}
	}
}

// render writes the orthographic silhouette (max over depth) with noise.
func (s *Shapes3D) render(views, voxels *tensor.Tensor, i int) {
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			// Project voxel (scaled) columns along z.
			vy := y * s.D / s.H
			vx := x * s.D / s.W
			occ := 0.0
			for z := 0; z < s.D; z++ {
				if voxels.At(i, z, vy, vx) > 0 {
					occ = 1
					break
				}
			}
			for c := 0; c < s.C; c++ {
				views.Set(occ+0.05*s.rng.NormFloat64(), i, c, y, x)
			}
		}
	}
}

// Faces generates identity-conditional face-like images for the FaceNet
// (face embedding) and RGB-D (3D face recognition) workloads: each
// identity has a prototype; samples add pose/illumination variation.
// With Channels=4 the fourth channel is a depth map, matching the
// RGB-D ResNet-50 input adjustment the paper describes.
type Faces struct {
	Identities int
	C, H, W    int
	Variation  float64
	prototypes []*tensor.Tensor
	rng        *rand.Rand
}

// NewFaces builds the identity generator.
func NewFaces(seed int64, identities, c, h, w int, variation float64) *Faces {
	rng := NewRNG(seed)
	protos := make([]*tensor.Tensor, identities)
	for i := range protos {
		protos[i] = tensor.Randn(rng, 0, 1, c, h, w)
	}
	return &Faces{
		Identities: identities, C: c, H: h, W: w,
		Variation: variation, prototypes: protos, rng: rng,
	}
}

// Sample draws one image [1, C, H, W] of the given identity from a.
func (f *Faces) Sample(a *tensor.Arena, identity int) *tensor.Tensor {
	x := a.Take(1, f.C, f.H, f.W)
	f.sampleInto(x, 0, identity)
	return x
}

// sampleInto draws an image of the given identity into row i of x.
func (f *Faces) sampleInto(x *tensor.Tensor, i, identity int) {
	p := f.prototypes[identity].Data
	row := x.Data[i*len(p) : (i+1)*len(p)]
	for j := range row {
		row[j] = p[j] + f.Variation*f.rng.NormFloat64()
	}
}

// Batch draws len(labels) identity images from a, their identities
// into labels.
func (f *Faces) Batch(a *tensor.Arena, labels []int) *tensor.Tensor {
	x := a.Take(len(labels), f.C, f.H, f.W)
	for i := range labels {
		id := f.rng.Intn(f.Identities)
		labels[i] = id
		f.sampleInto(x, i, id)
	}
	return x
}

// Triplets draws n (anchor, positive, negative) image triples from a
// for the FaceNet triplet loss: anchor and positive share an identity,
// negative differs.
func (f *Faces) Triplets(a *tensor.Arena, n int) (anchor, pos, neg *tensor.Tensor) {
	anchor, pos, neg = a.Take(n, f.C, f.H, f.W), a.Take(n, f.C, f.H, f.W), a.Take(n, f.C, f.H, f.W)
	for i := 0; i < n; i++ {
		idA := f.rng.Intn(f.Identities)
		idN := f.rng.Intn(f.Identities)
		for idN == idA {
			idN = f.rng.Intn(f.Identities)
		}
		f.sampleInto(anchor, i, idA)
		f.sampleInto(pos, i, idA)
		f.sampleInto(neg, i, idN)
	}
	return anchor, pos, neg
}

// VerificationPairs draws len(same) pairs from a, alternately of one
// identity and of two, and records which into same, the ground truth of
// the verification-accuracy metric.
func (f *Faces) VerificationPairs(a *tensor.Arena, same []bool) (x, y *tensor.Tensor) {
	x, y = a.Take(len(same), f.C, f.H, f.W), a.Take(len(same), f.C, f.H, f.W)
	for i := range same {
		idA := f.rng.Intn(f.Identities)
		idB := idA
		if i%2 != 0 {
			for idB == idA {
				idB = f.rng.Intn(f.Identities)
			}
		}
		same[i] = idB == idA
		f.sampleInto(x, i, idA)
		f.sampleInto(y, i, idB)
	}
	return x, y
}
