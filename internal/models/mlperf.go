package models

import (
	"math"
	"math/rand"

	"aibench/internal/autograd"
	"aibench/internal/data"
	"aibench/internal/metrics"
	"aibench/internal/nn"
	"aibench/internal/optim"
	"aibench/internal/tensor"
	"aibench/internal/workload"
)

// The MLPerf Training v0.6-era suite the paper compares against: image
// classification (ResNet-50, shared with DC-AI-C1), object detection
// light (SSD) and heavy (Mask R-CNN), recurrent (GNMT) and nonrecurrent
// (Transformer) translation, recommendation (NCF, shared with
// DC-AI-C10), and reinforcement learning (Minigo).

// NewMaskRCNN returns the MLPerf heavy-weight object detection benchmark
// (Mask R-CNN): the two-stage detector with an additional mask head.
func NewMaskRCNN(seed int64) *ObjectDetection { return newTwoStageDetector(seed, true) }

// maskRCNNSpec is the paper-scale architecture of MLPerf-ODH.
func maskRCNNSpec() workload.Model {
	// The paper's OpCounter-style accounting reports MLPerf FLOPs only up
	// to 24500 M-FLOPs — far below a full 800² Mask R-CNN — because the
	// tool cannot hook the detectron-style custom ops. We reproduce the
	// same partial-count scale by speccing the measured portion: the
	// ResNet-50 backbone at the 400² short side plus RPN, box head, and a
	// 32-RoI mask branch.
	bb, c, oh, ow := workload.ResNet50Backbone(3, 400, 400)
	ls := bb.Layers
	ls, _, _ = workload.ConvBNReLU(ls, "rpn", c, 512, 3, 1, oh, ow)
	ls = append(ls,
		workload.Layer{Kind: workload.Conv, Name: "rpn_cls", InC: 512, OutC: 2 * 9, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.Conv, Name: "rpn_box", InC: 512, OutC: 4 * 9, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.Conv, Name: "lateral", InC: c, OutC: 256, Kernel: 1, Stride: 1, H: oh, W: ow},
		workload.Layer{Kind: workload.GridSample, Name: "roialign", Elems: 32 * 256 * 7 * 7},
		workload.Layer{Kind: workload.Linear, Name: "head_fc1", In: 256 * 7 * 7, Out: 1024, M: 32},
		workload.Layer{Kind: workload.Linear, Name: "head_cls", In: 1024, Out: 81, M: 32},
		workload.Layer{Kind: workload.Linear, Name: "head_box", In: 1024, Out: 324, M: 32},
	)
	// Mask branch: four 3×3 convs + upsample + per-class mask over 32 RoIs.
	for i := 0; i < 4; i++ {
		ls = append(ls, workload.Layer{Kind: workload.Conv, Name: "mask_conv", InC: 256, OutC: 256, Kernel: 3, Stride: 1, H: 14, W: 14 * 32})
	}
	ls = append(ls,
		workload.Layer{Kind: workload.Upsample, Name: "mask_up", Elems: 256 * 28 * 28 * 32},
		workload.Layer{Kind: workload.Conv, Name: "mask_out", InC: 256, OutC: 81, Kernel: 1, Stride: 1, H: 28, W: 28 * 32},
	)
	return workload.Model{Name: "MLPerf Object Detection heavy (Mask R-CNN/COCO)", Layers: ls}
}

// SSDLight is the MLPerf light-weight object detection benchmark: a
// one-stage detector predicting class and box per feature cell directly
// (no proposal/RoI stage), scaled onto the same synthetic scenes.
type SSDLight struct {
	stepArena
	singlePhase
	backbone *detectorBackbone
	head     *nn.Conv2D // per cell: objectness + 4 box + classes
	opt      optim.Optimizer
	ds       *data.Detection
	classes  int
	imgSize  int
	grid     int
	batches  int
	evalX    *tensor.Tensor
	evalGT   [][]data.Box
	epoch    int
	x        *tensor.Tensor // the step's scenes and their boxes
	boxes    [][]data.Box
}

// NewSSDLight constructs the scaled benchmark.
func NewSSDLight(seed int64) *SSDLight {
	rng := rand.New(rand.NewSource(seed))
	classes, width := 4, 6
	b := &SSDLight{
		backbone: newDetectorBackbone(rng, 3, width),
		// Head input: backbone features concatenated with a stride-4
		// average pool of the raw image (stable per-cell pixel evidence
		// for the class branch).
		head:    nn.NewConv2D(rng, 2*width+3, 5+classes, 1, 1, 0),
		ds:      data.NewDetection(seed+1000, classes, 3, 16, 16, 2),
		classes: classes,
		imgSize: 16,
		grid:    4,
		batches: 6,
	}
	b.opt = optim.NewAdam(b.Module(), 2e-3)
	// Held-out scenes from the same generator: the class textures are
	// part of the task definition and must match between train and eval.
	b.evalX, b.evalGT = b.ds.Scene(24)
	b.adopt(b.Module())
	return b
}

// BeginEpoch implements Benchmark: training mode plus the decayed
// learning rate.
func (b *SSDLight) BeginEpoch() {
	b.backbone.SetTraining(true)
	b.epoch++
	b.opt.SetLR(2e-3 * math.Pow(0.995, float64(b.epoch)))
}

// StepsPerEpoch implements Benchmark.
func (b *SSDLight) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *SSDLight) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the scene macro-batch.
func (b *SSDLight) BeginPhase(int, int) int {
	b.x, b.boxes = b.ds.Scene(8)
	return len(b.boxes)
}

// Grain implements Benchmark: train scenes [lo,hi) of the draw, images
// and their boxes together, with the one-stage multibox loss.
func (b *SSDLight) Grain(_, lo, hi int) (float64, int) {
	return backward(b.multiboxLoss(batchRows(b.x, lo, hi), b.boxes[lo:hi]), hi-lo)
}

// Buffers implements Buffered: the backbone's batch-norm running
// statistics.
func (b *SSDLight) Buffers() []*tensor.Tensor { return b.backbone.Buffers() }

// multiboxLoss is the one-stage multibox loss of a scene batch:
// objectness, masked box regression and per-cell classification.
func (b *SSDLight) multiboxLoss(x *tensor.Tensor, boxes [][]data.Box) *autograd.Value {
	cells := b.grid * b.grid
	pred := b.head.Forward(b.headInput(x))
	n := x.Dim(0)
	flat := autograd.Reshape(pred, n, (5+b.classes)*cells)

	objT := tensor.New(n, cells)
	boxT := tensor.New(n, 4*cells)
	boxMask := tensor.New(n, 4*cells)
	clsPerCell := make([][]int, n)
	for i := 0; i < n; i++ {
		obj, tx, ty, tw, th, cls := cellTargets(boxes[i], b.imgSize, b.grid)
		clsPerCell[i] = cls // -1 masks background cells
		for c := 0; c < cells; c++ {
			if obj[c] > 0 {
				objT.Set(1, i, c)
				boxT.Data[i*4*cells+0*cells+c] = tx[c]
				boxT.Data[i*4*cells+1*cells+c] = ty[c]
				boxT.Data[i*4*cells+2*cells+c] = tw[c]
				boxT.Data[i*4*cells+3*cells+c] = th[c]
				for ch := 0; ch < 4; ch++ {
					boxMask.Data[i*4*cells+ch*cells+c] = 1
				}
			}
		}
	}
	objPred := autograd.SliceCols(flat, 0, cells)
	boxPred := autograd.Sigmoid(autograd.SliceCols(flat, cells, 5*cells))
	clsPred := autograd.SliceCols(flat, 5*cells, (5+b.classes)*cells)
	// Regroup channel-major class predictions into one row per cell:
	// block c holds the n samples' logits for cell c.
	blocks := make([]*autograd.Value, cells)
	clsLabels := make([]int, 0, n*cells)
	for c := 0; c < cells; c++ {
		idx := make([]int, b.classes)
		for ch := 0; ch < b.classes; ch++ {
			idx[ch] = ch*cells + c
		}
		blocks[c] = autograd.GatherCols(clsPred, idx)
		for i := 0; i < n; i++ {
			clsLabels = append(clsLabels, clsPerCell[i][c])
		}
	}
	clsRows := autograd.Concat(blocks...)

	objLoss := autograd.BCEWithLogits(objPred, objT)
	boxLoss := autograd.Scale(
		autograd.MSELoss(autograd.Mul(boxPred, autograd.Const(boxMask)), tensor.Mul(boxT, boxMask)), 8)
	clsLoss := autograd.MaskedSoftmaxCrossEntropy(clsRows, clsLabels)
	loss := autograd.Add(autograd.Add(objLoss, boxLoss), clsLoss)
	return loss
}

// headInput builds the head's input: backbone features concatenated
// with the stride-4 pooled image.
func (b *SSDLight) headInput(x *tensor.Tensor) *autograd.Value {
	feat := b.backbone.Forward(autograd.Const(x))
	stride := b.imgSize / b.grid
	pooled := autograd.AvgPool2D(autograd.Const(x), tensor.Conv2DParams{Kernel: stride, Stride: stride})
	return autograd.ConcatChannels(feat, pooled)
}

// Quality implements Benchmark: mAP@0.5 on the fixed held-out scenes.
func (b *SSDLight) Quality() float64 {
	b.arena.Reset()
	b.backbone.SetTraining(false)
	x, truth := b.evalX, b.evalGT
	pred := b.head.Forward(b.headInput(x))
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
				bestC, bestV := 0, pred.Data.At(i, 5, gy, gx)
				for c := 1; c < b.classes; c++ {
					if v := pred.Data.At(i, 5+c, gy, gx); v > bestV {
						bestC, bestV = c, v
					}
				}
				box.Class = bestC
				results = append(results, metrics.DetectionResult{Box: box, Score: objP, Image: i})
			}
		}
	}
	return metrics.MeanAP(nms(results, 0.4), truth, b.classes, 0.5)
}

// Module implements Benchmark.
func (b *SSDLight) Module() nn.Module { return Modules(b.backbone, b.head) }

// ssdSpec is the paper-scale architecture: SSD-ResNet34 at 300×300.
func ssdSpec() workload.Model {
	var ls []workload.Layer
	var oh, ow int
	ls, oh, ow = workload.ConvBNReLU(ls, "stem", 3, 64, 7, 2, 300, 300)
	in := 64
	for i, wd := range []int{64, 128, 256} {
		stride := 1
		if i > 0 {
			stride = 2
		}
		for bkk := 0; bkk < []int{3, 4, 6}[i]; bkk++ {
			s := 1
			if bkk == 0 {
				s = stride
			}
			ls, oh, ow = workload.ConvBNReLU(ls, "res.a", in, wd, 3, s, oh, ow)
			ls, oh, ow = workload.ConvBNReLU(ls, "res.b", wd, wd, 3, 1, oh, ow)
			in = wd
		}
	}
	// Multibox heads over the feature pyramid.
	for i, sz := range []int{38, 19, 10, 5, 3, 1} {
		c := 256
		ls = append(ls,
			workload.Layer{Kind: workload.Conv, Name: "loc_head", InC: c, OutC: 4 * 4, Kernel: 3, Stride: 1, H: sz, W: sz},
			workload.Layer{Kind: workload.Conv, Name: "conf_head", InC: c, OutC: 4 * 81, Kernel: 3, Stride: 1, H: sz, W: sz},
		)
		_ = i
	}
	return workload.Model{Name: "MLPerf Object Detection light (SSD/COCO)", Layers: ls}
}

// GNMT is the MLPerf recurrent translation benchmark: LSTM
// encoder-decoder with attention, scaled onto the synthetic parallel
// corpus; quality is corpus BLEU of the greedy decode.
type GNMT struct {
	stepArena
	singlePhase
	emb     *nn.Embedding
	enc     *nn.LSTMCell
	dec     *nn.LSTMCell
	attnW   *nn.Linear
	proj    *nn.Linear
	opt     optim.Optimizer
	ds      *data.Translation
	vocab   int
	hidden  int
	batches int
	// The step's one translation pair.
	src, tgt []int
}

// NewGNMT constructs the scaled benchmark.
func NewGNMT(seed int64) *GNMT {
	rng := rand.New(rand.NewSource(seed))
	ds := data.NewTranslation(seed+1000, 12, 5)
	vocab := ds.TotalVocab()
	hidden := 18
	b := &GNMT{
		emb:     nn.NewEmbedding(rng, vocab, hidden),
		enc:     nn.NewLSTMCell(rng, hidden, hidden),
		dec:     nn.NewLSTMCell(rng, hidden, hidden),
		attnW:   nn.NewLinear(rng, 2*hidden, hidden),
		proj:    nn.NewLinear(rng, hidden, vocab),
		ds:      ds,
		vocab:   vocab,
		hidden:  hidden,
		batches: 20,
	}
	b.opt = optim.NewAdam(b.Module(), 3e-3)
	b.adopt(b.Module())
	return b
}

func (b *GNMT) encode(src []int) (*autograd.Value, *autograd.Value, *autograd.Value) {
	h, c := b.enc.InitState(1)
	var outs []*autograd.Value
	for _, tok := range src {
		h, c = b.enc.Step(b.emb.Lookup([]int{tok}), h, c)
		outs = append(outs, h)
	}
	return autograd.Concat(outs...), h, c
}

func (b *GNMT) decodeStep(tok int, h, c, encStates *autograd.Value) (*autograd.Value, *autograd.Value, *autograd.Value) {
	h2, c2 := b.dec.Step(b.emb.Lookup([]int{tok}), h, c)
	scores := autograd.MatMul(h2, autograd.Transpose(encStates))
	weights := autograd.SoftmaxRows(scores)
	context := autograd.MatMul(weights, encStates)
	feat := autograd.Tanh(b.attnW.Forward(autograd.ConcatCols(h2, context)))
	return b.proj.Forward(feat), h2, c2
}

// BeginEpoch implements Benchmark (no per-epoch state).
func (b *GNMT) BeginEpoch() {}

// StepsPerEpoch implements Benchmark: the epoch's 20 pairs, one pair
// per step at every grain count — 20 pairs do not divide into
// ShardGrains grains, and one-pair steps drop none of them.
func (b *GNMT) StepsPerEpoch(int) int { return b.batches }

// ApplyPhase implements Benchmark.
func (b *GNMT) ApplyPhase(int) { b.opt.Step() }

// BeginPhase implements Benchmark: draw the step's one translation
// pair.
func (b *GNMT) BeginPhase(int, int) int {
	b.src, b.tgt = b.ds.Pair()
	return 1
}

// Grain implements Benchmark: train the draw's one pair with
// teacher-forced cross-entropy.
func (b *GNMT) Grain(int, int, int) (float64, int) {
	encStates, h, c := b.encode(b.src)
	var losses []*autograd.Value
	for t := 0; t+1 < len(b.tgt); t++ {
		var logits *autograd.Value
		logits, h, c = b.decodeStep(b.tgt[t], h, c, encStates)
		losses = append(losses, autograd.SoftmaxCrossEntropy(logits, []int{b.tgt[t+1]}))
	}
	return backward(meanLoss(losses), len(losses))
}

// Translate greedily decodes a source sentence.
func (b *GNMT) Translate(src []int, maxLen int) []int {
	encStates, h, c := b.encode(src)
	tok := data.BosToken
	var out []int
	for t := 0; t < maxLen; t++ {
		var logits *autograd.Value
		logits, h, c = b.decodeStep(tok, h, c, encStates)
		tok = argmaxRows(nil, logits)[0]
		if tok == data.EosToken {
			break
		}
		out = append(out, tok)
	}
	return out
}

// Quality implements Benchmark: corpus BLEU ×100 against references
// (MLPerf's convergent quality for GNMT is 22.21 BLEU).
func (b *GNMT) Quality() float64 {
	var hyps, refs [][]int
	for i := 0; i < 16; i++ {
		b.arena.Reset()
		src, _ := b.ds.Pair()
		hyps = append(hyps, b.Translate(src, 8))
		refs = append(refs, b.ds.Reference(src))
	}
	return 100 * metrics.BLEU(hyps, refs)
}

// Module implements Benchmark.
func (b *GNMT) Module() nn.Module {
	return Modules(b.emb, b.enc, b.dec, b.attnW, b.proj)
}

// gnmtSpec is the paper-scale architecture: GNMT — stacked LSTM
// encoder/decoder with attention and tied embedding/projection, sized
// to the paper's measured parameter count for the MLPerf
// recurrent-translation benchmark (49.53M, the suite's most complex
// model per Section 5.2.1).
func gnmtSpec() workload.Model {
	seq, d, hidden, vocab := 25, 768, 768, 24000
	var ls []workload.Layer
	ls = append(ls, workload.Layer{Kind: workload.Embedding, Name: "emb", Vocab: vocab, EmbDim: d, Lookups: 2 * seq})
	for i := 0; i < 3; i++ {
		ls = append(ls, workload.Layer{Kind: workload.LSTM, Name: "enc", SeqLen: seq, Input: d, Hidden: hidden})
	}
	ls = append(ls, workload.Layer{Kind: workload.Attention, Name: "attn", Seq: seq, Dim: hidden, Heads: 1})
	for i := 0; i < 3; i++ {
		ls = append(ls, workload.Layer{Kind: workload.LSTM, Name: "dec", SeqLen: seq, Input: d, Hidden: hidden})
	}
	ls = append(ls,
		workload.Layer{Kind: workload.Linear, Name: "proj", In: hidden, Out: vocab, M: seq, Tied: true},
		workload.Layer{Kind: workload.Softmax, Name: "softmax", Elems: seq * vocab},
	)
	return workload.Model{Name: "MLPerf Translation recurrent (GNMT/WMT)", Layers: ls}
}

// mlperfTransformerSpec is the paper-scale architecture of MLPerf-TN:
// DC-AI-C3's Transformer, under the MLPerf name.
func mlperfTransformerSpec() workload.Model {
	m := textToTextSpec()
	m.Name = "MLPerf Translation nonrecurrent (Transformer/WMT)"
	return m
}
