package models

import (
	"math"
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

// detectorBackbone is the shared conv feature extractor of the detection
// benchmarks: 16×16 input → 4×4 feature map (stride 4).
type detectorBackbone struct {
	b1, b2 *convBlock
}

func newDetectorBackbone(rng *rand.Rand, inC, width int) *detectorBackbone {
	return &detectorBackbone{
		b1: newConvBlock(rng, inC, width, 3, 2, 1),
		b2: newConvBlock(rng, width, 2*width, 3, 2, 1),
	}
}

func (d *detectorBackbone) Forward(x *autograd.Value) *autograd.Value {
	return d.b2.Forward(d.b1.Forward(x))
}

func (d *detectorBackbone) Params() []*nn.Param {
	return append(d.b1.Params(), d.b2.Params()...)
}

func (d *detectorBackbone) SetTraining(t bool) {
	d.b1.SetTraining(t)
	d.b2.SetTraining(t)
}

func (d *detectorBackbone) Buffers() []*tensor.Tensor {
	return append(d.b1.Buffers(), d.b2.Buffers()...)
}

// rpn predicts, per feature cell, an objectness logit and a box
// parametrized as (sigmoid tx, ty: center within cell; sigmoid tw, th:
// size as fraction of image).
type rpn struct {
	conv *nn.Conv2D
}

func newRPN(rng *rand.Rand, featC int) *rpn {
	return &rpn{conv: nn.NewConv2D(rng, featC, 5, 1, 1, 0)}
}

// Forward returns [N, 5, GH, GW]: channel 0 objectness, 1-4 box params.
func (r *rpn) Forward(feat *autograd.Value) *autograd.Value {
	return r.conv.Forward(feat)
}

func (r *rpn) Params() []*nn.Param { return r.conv.Params() }

// cellTargets derives RPN training targets from ground truth: for each
// grid cell, whether an object's center falls in it, and the box
// parameters of that object.
func cellTargets(boxes []data.Box, imgSize, grid int) (obj []float64, tx, ty, tw, th []float64, cls []int) {
	cells := grid * grid
	obj = make([]float64, cells)
	tx = make([]float64, cells)
	ty = make([]float64, cells)
	tw = make([]float64, cells)
	th = make([]float64, cells)
	cls = make([]int, cells)
	for i := range cls {
		cls[i] = -1
	}
	cell := imgSize / grid
	for _, b := range boxes {
		cx := float64(b.X) + float64(b.W)/2
		cy := float64(b.Y) + float64(b.H)/2
		gx := int(cx) / cell
		gy := int(cy) / cell
		if gx >= grid {
			gx = grid - 1
		}
		if gy >= grid {
			gy = grid - 1
		}
		idx := gy*grid + gx
		obj[idx] = 1
		tx[idx] = (cx - float64(gx*cell)) / float64(cell)
		ty[idx] = (cy - float64(gy*cell)) / float64(cell)
		tw[idx] = float64(b.W) / float64(imgSize)
		th[idx] = float64(b.H) / float64(imgSize)
		cls[idx] = b.Class
	}
	return obj, tx, ty, tw, th, cls
}

// decodeCell converts a cell's predicted parameters to a pixel box.
func decodeCell(gx, gy, grid, imgSize int, px, py, pw, ph float64) data.Box {
	cell := float64(imgSize / grid)
	cx := float64(gx)*cell + sigmoid(px)*cell
	cy := float64(gy)*cell + sigmoid(py)*cell
	w := sigmoid(pw) * float64(imgSize)
	h := sigmoid(ph) * float64(imgSize)
	return data.Box{
		X: int(cx - w/2), Y: int(cy - h/2),
		W: maxI(int(w), 1), H: maxI(int(h), 1),
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// roiCrop extracts a pooled feature vector for a box from one sample's
// feature map using bilinear sampling (the RoIAlign mechanism). The grid
// is constant, so gradients flow into the features only.
func roiCrop(feat *autograd.Value, sample int, b data.Box, imgSize, poolN int) *autograd.Value {
	one := autograd.SliceRows(feat, sample, sample+1) // [1, C, GH, GW]
	hw := poolN * poolN
	grid := tensor.New(1, hw, 2)
	for py := 0; py < poolN; py++ {
		for px := 0; px < poolN; px++ {
			// Sample points evenly inside the box, in normalized image coords.
			fx := float64(b.X) + (float64(px)+0.5)/float64(poolN)*float64(b.W)
			fy := float64(b.Y) + (float64(py)+0.5)/float64(poolN)*float64(b.H)
			grid.Data[(py*poolN+px)*2] = 2*fx/float64(imgSize) - 1
			grid.Data[(py*poolN+px)*2+1] = 2*fy/float64(imgSize) - 1
		}
	}
	crop := autograd.GridSample(one, autograd.Const(grid), poolN, poolN)
	c := crop.Shape()[1]
	return autograd.Reshape(crop, 1, c*hw)
}

// ObjectDetection is DC-AI-C9: Faster R-CNN with a ResNet-50 backbone on
// VOC2007, scaled to a two-stage detector (conv backbone, RPN, RoIAlign
// head) on synthetic annotated scenes; quality is mAP@0.5.
type ObjectDetection struct {
	stepArena
	singlePhase
	backbone *detectorBackbone
	rpnHead  *rpn
	clsHead  *nn.Sequential
	opt      optim.Optimizer
	ds       *data.Detection
	rng      *rand.Rand
	classes  int
	imgSize  int
	grid     int
	batches  int
	maskHead *nn.Sequential // non-nil for the Mask R-CNN (heavy) variant
	evalX    *tensor.Tensor
	evalGT   [][]data.Box
	poolN    int
	epoch    int
	// The step's draw: scenes, their boxes and per-image negative RoIs.
	x     *tensor.Tensor
	boxes [][]data.Box
	negs  []data.Box
}

// NewObjectDetection constructs the scaled DC-AI-C9 benchmark.
func NewObjectDetection(seed int64) *ObjectDetection { return newTwoStageDetector(seed, false) }

func newTwoStageDetector(seed int64, withMask bool) *ObjectDetection {
	rng := rand.New(rand.NewSource(seed))
	classes := 4
	width := 6
	featC := 2 * width
	poolN := 3
	b := &ObjectDetection{
		backbone: newDetectorBackbone(rng, 3, width),
		rpnHead:  newRPN(rng, featC),
		clsHead: nn.NewSequential(
			// Head input: an RoIAligned crop of the input image. The
			// scaled backbone is shared with the RPN, whose loss keeps
			// reshaping its features; classifying from the stable
			// RoIAligned pixels keeps the second stage trainable.
			nn.NewLinear(rng, 3*poolN*poolN, 24), nn.ReLU{},
			nn.NewLinear(rng, 24, classes+1), // +1 background
		),
		ds:      data.NewDetection(seed+1000, classes, 3, 16, 16, 2),
		rng:     rng,
		classes: classes,
		imgSize: 16,
		grid:    4,
		batches: 6,
		poolN:   poolN,
	}
	if withMask {
		b.maskHead = nn.NewSequential(
			nn.NewLinear(rng, 3*poolN*poolN, 24), nn.ReLU{},
			nn.NewLinear(rng, 24, 16), // 4×4 mask logits
		)
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	// Held-out scenes from the same generator: the class textures are
	// part of the task definition and must match between train and eval.
	b.evalX, b.evalGT = b.ds.Scene(24)
	b.adopt(b.Module())
	return b
}

// drawNegatives draws one candidate negative RoI per image, in image
// order — the rng stream is identical whether the batch then trains
// serially or split into grains.
func (b *ObjectDetection) drawNegatives(n int) []data.Box {
	negs := make([]data.Box, n)
	for i := range negs {
		negs[i] = data.Box{X: b.rng.Intn(12), Y: b.rng.Intn(12), W: 4, H: 4}
	}
	return negs
}

// rangeLoss builds the joint RPN + head loss over images [lo,hi) of
// the step's draw: backbone + RPN forward on the slice, per-cell objectness
// and box targets, and RoI-head losses for every ground-truth box plus
// the image's pre-drawn candidate negative (used only when it is
// actually background).
func (b *ObjectDetection) rangeLoss(lo, hi int) *autograd.Value {
	xs := batchRows(b.x, lo, hi)
	feat := b.backbone.Forward(autograd.Const(xs))
	pred := b.rpnHead.Forward(feat) // [n, 5, 4, 4]
	n := hi - lo
	cells := b.grid * b.grid

	// Assemble RPN targets.
	objT := tensor.New(n, 1, b.grid, b.grid)
	boxT := tensor.New(n, 4, b.grid, b.grid)
	boxMask := tensor.New(n, 4, b.grid, b.grid)
	roiLosses := []*autograd.Value{}
	for i := 0; i < n; i++ {
		obj, tx, ty, tw, th, _ := cellTargets(b.boxes[lo+i], b.imgSize, b.grid)
		for c := 0; c < cells; c++ {
			gy, gx := c/b.grid, c%b.grid
			objT.Set(obj[c], i, 0, gy, gx)
			if obj[c] > 0 {
				// Targets in [0,1] matching the sigmoid-activated
				// box channels the decoder applies.
				boxT.Set(tx[c], i, 0, gy, gx)
				boxT.Set(ty[c], i, 1, gy, gx)
				boxT.Set(tw[c], i, 2, gy, gx)
				boxT.Set(th[c], i, 3, gy, gx)
				for ch := 0; ch < 4; ch++ {
					boxMask.Set(1, i, ch, gy, gx)
				}
			}
		}
		// Head training: ground-truth boxes as positive RoIs plus one
		// random negative RoI per image.
		img := autograd.Const(xs)
		for _, gt := range b.boxes[lo+i] {
			cropv := b.roiFeatures(feat, img, i, gt)
			logits := b.clsHead.Forward(cropv)
			roiLosses = append(roiLosses, autograd.SoftmaxCrossEntropy(logits, []int{gt.Class}))
			if b.maskHead != nil {
				roiLosses = append(roiLosses, b.maskLoss(cropv, gt))
			}
		}
		if neg := b.negs[lo+i]; isBackground(neg, b.boxes[lo+i]) {
			cropv := b.roiFeatures(feat, img, i, neg)
			logits := b.clsHead.Forward(cropv)
			roiLosses = append(roiLosses, autograd.SoftmaxCrossEntropy(logits, []int{b.classes}))
		}
	}

	objPred := autograd.SliceCols(autograd.Reshape(pred, n, 5*cells), 0, cells)
	objLoss := autograd.BCEWithLogits(objPred, objT.Reshape(n, cells))
	boxPred := autograd.Sigmoid(autograd.SliceCols(autograd.Reshape(pred, n, 5*cells), cells, 5*cells))
	masked := autograd.Mul(boxPred, autograd.Const(boxMask.Reshape(n, 4*cells)))
	boxLoss := autograd.Scale(
		autograd.MSELoss(masked, tensor.Mul(boxT.Reshape(n, 4*cells), boxMask.Reshape(n, 4*cells))), 8)

	loss := autograd.Add(objLoss, boxLoss)
	for _, rl := range roiLosses {
		loss = autograd.Add(loss, autograd.Scale(rl, 1/float64(len(roiLosses))))
	}
	return loss
}

// BeginEpoch implements Benchmark: training mode plus the decayed
// learning rate of the Faster R-CNN schedule shape (every replica
// advances the schedule identically).
func (b *ObjectDetection) BeginEpoch() {
	b.backbone.SetTraining(true)
	b.epoch++
	b.opt.SetLR(2e-3 * math.Pow(0.985, float64(b.epoch)))
}

// StepsPerEpoch implements Benchmark.
func (b *ObjectDetection) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *ObjectDetection) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the scene macro-batch and
// the per-image negative RoIs.
func (b *ObjectDetection) BeginPhase(int, int) int {
	b.x, b.boxes = b.ds.Scene(8)
	b.negs = b.drawNegatives(len(b.boxes))
	return b.x.Dim(0)
}

// Grain implements Benchmark: train images [lo,hi) of the draw
// (batch-norm statistics are computed per grain; the engine reduces and
// syncs the running stats through Buffers).
func (b *ObjectDetection) Grain(_, lo, hi int) (float64, int) {
	return backward(b.rangeLoss(lo, hi), hi-lo)
}

// Buffers implements Buffered: the backbone's batch-norm running
// statistics.
func (b *ObjectDetection) Buffers() []*tensor.Tensor { return b.backbone.Buffers() }

// roiFeatures builds the head input: an RoIAligned raw-image crop.
func (b *ObjectDetection) roiFeatures(feat, img *autograd.Value, sample int, box data.Box) *autograd.Value {
	_ = feat
	return roiCrop(img, sample, box, b.imgSize, b.poolN)
}

// maskLoss trains the mask head to reproduce a full-box mask (synthetic
// objects are solid rectangles).
func (b *ObjectDetection) maskLoss(cropv *autograd.Value, gt data.Box) *autograd.Value {
	logits := b.maskHead.Forward(cropv)
	target := tensor.Ones(1, 16)
	return autograd.BCEWithLogits(logits, target)
}

// coverage is the fraction of box b's area covered by o.
func coverage(b, o data.Box) float64 {
	x1 := maxI(b.X, o.X)
	y1 := maxI(b.Y, o.Y)
	x2 := minI(b.X+b.W, o.X+o.W)
	y2 := minI(b.Y+b.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 || b.W*b.H == 0 {
		return 0
	}
	return float64((x2-x1)*(y2-y1)) / float64(b.W*b.H)
}

// isBackground reports whether box b barely overlaps every ground-truth
// object (a safe negative RoI). Plain IoU is wrong here: a small box
// fully inside a large object has low IoU but is pure object pixels.
func isBackground(b data.Box, boxes []data.Box) bool {
	for _, o := range boxes {
		if coverage(b, o) >= 0.2 {
			return false
		}
	}
	return true
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// nms applies per-image, per-class non-maximum suppression at the given
// IoU threshold, keeping the highest-scoring box of each overlapping
// group.
func nms(results []metrics.DetectionResult, iouThresh float64) []metrics.DetectionResult {
	sort.Slice(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	var kept []metrics.DetectionResult
	for _, r := range results {
		suppressed := false
		for _, k := range kept {
			if k.Image == r.Image && k.Box.Class == r.Box.Class && k.Box.IoU(r.Box) >= iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, r)
		}
	}
	return kept
}

// Detect runs two-stage inference on a batch, returning scored
// detections after non-maximum suppression.
func (b *ObjectDetection) Detect(x *tensor.Tensor) []metrics.DetectionResult {
	b.backbone.SetTraining(false)
	feat := b.backbone.Forward(autograd.Const(x))
	img := autograd.Const(x)
	pred := b.rpnHead.Forward(feat)
	n := x.Dim(0)
	var results []metrics.DetectionResult
	for i := 0; i < n; i++ {
		for gy := 0; gy < b.grid; gy++ {
			for gx := 0; gx < b.grid; gx++ {
				objP := sigmoid(pred.Data.At(i, 0, gy, gx))
				if objP < 0.2 {
					continue
				}
				box := decodeCell(gx, gy, b.grid, b.imgSize,
					pred.Data.At(i, 1, gy, gx), pred.Data.At(i, 2, gy, gx),
					pred.Data.At(i, 3, gy, gx), pred.Data.At(i, 4, gy, gx))
				cropv := b.roiFeatures(feat, img, i, box)
				logits := b.clsHead.Forward(cropv)
				probs := tensor.SoftmaxRows(logits.Data)
				bestC, bestP := 0, probs.At(0, 0)
				for c := 1; c <= b.classes; c++ {
					if p := probs.At(0, c); p > bestP {
						bestC, bestP = c, p
					}
				}
				if bestC == b.classes {
					continue // background
				}
				box.Class = bestC
				results = append(results, metrics.DetectionResult{
					Box: box, Score: objP * bestP, Image: i,
				})
			}
		}
	}
	return nms(results, 0.4)
}

// Quality implements Benchmark: mAP@0.5 on the fixed held-out scenes.
func (b *ObjectDetection) Quality() float64 {
	b.arena.Reset()
	results := b.Detect(b.evalX)
	return metrics.MeanAP(results, b.evalGT, b.classes, 0.5)
}

// Module implements Benchmark.
func (b *ObjectDetection) Module() nn.Module {
	mods := []nn.Module{b.backbone, b.rpnHead, b.clsHead}
	if b.maskHead != nil {
		mods = append(mods, b.maskHead)
	}
	return Modules(mods...)
}

// fasterRCNNSpec is Faster R-CNN with ResNet-50 backbone at 800×800
// (the detectron input scale) — the largest-FLOPs benchmark in the
// suite per Fig 2 (paper: 157802 M-FLOPs).
func fasterRCNNSpec() workload.Model {
	bb, c, oh, ow := workload.ResNet50Backbone(3, 800, 800)
	ls := bb.Layers
	// RPN: 3×3 conv + objectness/box heads over the feature map.
	ls, _, _ = workload.ConvBNReLU(ls, "rpn", c, 512, 3, 1, oh, ow)
	ls = append(ls,
		workload.Layer{Kind: workload.Conv, Name: "rpn_cls", InC: 512, OutC: 2 * 9, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.Conv, Name: "rpn_box", InC: 512, OutC: 4 * 9, Kernel: 1, Stride: 1, H: oh, W: ow},
		// Channel reduction before RoIAlign (FPN-style lateral conv),
		// then RoIAlign over 128 proposals.
		workload.Layer{Kind: workload.Conv, Name: "lateral", InC: c, OutC: 256, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.GridSample, Name: "roialign", Elems: 128 * 256 * 7 * 7},
		workload.Layer{Kind: workload.Linear, Name: "head_fc1", In: 256 * 7 * 7, Out: 1024, M: 128},
		workload.Layer{Kind: workload.Linear, Name: "head_fc2", In: 1024, Out: 1024, M: 128},
		workload.Layer{Kind: workload.Linear, Name: "head_cls", In: 1024, Out: 21, M: 128},
		workload.Layer{Kind: workload.Linear, Name: "head_box", In: 1024, Out: 84, M: 128},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: 128 * 21},
	)
	return workload.Model{Name: "DC-AI-C9 Object Detection (Faster R-CNN/VOC2007)", Layers: ls}
}
