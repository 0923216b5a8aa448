package autograd

import (
	"fmt"
	"math"

	"aibench/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean negative log-likelihood of the
// labels under row-wise softmax of the logits. It is the fused
// softmax+NLL op every classification workload in the suite trains with.
func SoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	rows, cols := logits.Data.Dim(0), logits.Data.Dim(1)
	if len(labels) != rows {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), rows))
	}
	probs := tensor.SoftmaxRows(logits.Data)
	loss := 0.0
	for r, lab := range labels {
		if lab < 0 || lab >= cols {
			panic(fmt.Sprintf("autograd: label %d out of range [0,%d)", lab, cols))
		}
		loss -= math.Log(math.Max(probs.At(r, lab), 1e-300))
	}
	loss /= float64(rows)
	out := scalar(logits.Data, loss)
	return newNode("softmax_xent", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / float64(rows)
		gl := tensor.NewLike(logits.Data)
		for r := 0; r < rows; r++ {
			base := r * cols
			for c := 0; c < cols; c++ {
				gl.Data[base+c] = scale * probs.Data[base+c]
			}
			gl.Data[base+labels[r]] -= scale
		}
		logits.accumGrad(gl)
	}, logits)
}

// MSELoss computes the mean squared error between pred and a constant
// target tensor.
func MSELoss(pred *Value, target *tensor.Tensor) *Value {
	if !pred.Data.SameShape(target) {
		panic(fmt.Sprintf("autograd: MSELoss shapes %v vs %v", pred.Data.Shape(), target.Shape()))
	}
	n := float64(pred.Data.Size())
	loss := 0.0
	for i := range pred.Data.Data {
		d := pred.Data.Data[i] - target.Data[i]
		loss += d * d
	}
	loss /= n
	out := scalar(pred.Data, loss)
	return newNode("mse", out, func(g *tensor.Tensor) {
		scale := 2 * g.Data[0] / n
		gp := tensor.NewLike(pred.Data)
		for i := range gp.Data {
			gp.Data[i] = scale * (pred.Data.Data[i] - target.Data[i])
		}
		pred.accumGrad(gp)
	}, pred)
}

// L1Loss computes the mean absolute error between pred and a constant
// target (used by the CycleGAN cycle-consistency term).
func L1Loss(pred *Value, target *tensor.Tensor) *Value {
	if !pred.Data.SameShape(target) {
		panic(fmt.Sprintf("autograd: L1Loss shapes %v vs %v", pred.Data.Shape(), target.Shape()))
	}
	n := float64(pred.Data.Size())
	loss := 0.0
	for i := range pred.Data.Data {
		loss += math.Abs(pred.Data.Data[i] - target.Data[i])
	}
	loss /= n
	out := scalar(pred.Data, loss)
	return newNode("l1", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / n
		gp := tensor.NewLike(pred.Data)
		for i := range gp.Data {
			d := pred.Data.Data[i] - target.Data[i]
			switch {
			case d > 0:
				gp.Data[i] = scale
			case d < 0:
				gp.Data[i] = -scale
			}
		}
		pred.accumGrad(gp)
	}, pred)
}

// BCEWithLogits computes the mean binary cross-entropy of logits against
// targets in [0,1], using the numerically stable log-sum-exp form.
func BCEWithLogits(logits *Value, target *tensor.Tensor) *Value {
	if !logits.Data.SameShape(target) {
		panic(fmt.Sprintf("autograd: BCEWithLogits shapes %v vs %v", logits.Data.Shape(), target.Shape()))
	}
	n := float64(logits.Data.Size())
	loss := 0.0
	for i, x := range logits.Data.Data {
		t := target.Data[i]
		// max(x,0) - x*t + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*t + math.Log1p(math.Exp(-math.Abs(x)))
	}
	loss /= n
	out := scalar(logits.Data, loss)
	return newNode("bce", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / n
		gp := tensor.NewLike(logits.Data)
		for i, x := range logits.Data.Data {
			s := 1 / (1 + math.Exp(-x))
			gp.Data[i] = scale * (s - target.Data[i])
		}
		logits.accumGrad(gp)
	}, logits)
}

// HuberLoss computes the mean smooth-L1 loss with threshold delta, as used
// by the Faster R-CNN bounding-box regression head.
func HuberLoss(pred *Value, target *tensor.Tensor, delta float64) *Value {
	if !pred.Data.SameShape(target) {
		panic(fmt.Sprintf("autograd: HuberLoss shapes %v vs %v", pred.Data.Shape(), target.Shape()))
	}
	n := float64(pred.Data.Size())
	loss := 0.0
	for i := range pred.Data.Data {
		d := pred.Data.Data[i] - target.Data[i]
		if a := math.Abs(d); a <= delta {
			loss += 0.5 * d * d
		} else {
			loss += delta * (a - 0.5*delta)
		}
	}
	loss /= n
	out := scalar(pred.Data, loss)
	return newNode("huber", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / n
		gp := tensor.NewLike(pred.Data)
		for i := range gp.Data {
			d := pred.Data.Data[i] - target.Data[i]
			switch {
			case d > delta:
				gp.Data[i] = scale * delta
			case d < -delta:
				gp.Data[i] = -scale * delta
			default:
				gp.Data[i] = scale * d
			}
		}
		pred.accumGrad(gp)
	}, pred)
}

// TripletLoss computes mean(max(0, ||a-p||² - ||a-n||² + margin)) over
// rows of anchor/positive/negative embedding matrices — the FaceNet
// training objective.
func TripletLoss(anchor, pos, neg *Value, margin float64) *Value {
	rows, cols := anchor.Data.Dim(0), anchor.Data.Dim(1)
	active := make([]bool, rows)
	loss := 0.0
	for r := 0; r < rows; r++ {
		base := r * cols
		dp, dn := 0.0, 0.0
		for c := 0; c < cols; c++ {
			ap := anchor.Data.Data[base+c] - pos.Data.Data[base+c]
			an := anchor.Data.Data[base+c] - neg.Data.Data[base+c]
			dp += ap * ap
			dn += an * an
		}
		if v := dp - dn + margin; v > 0 {
			loss += v
			active[r] = true
		}
	}
	loss /= float64(rows)
	ar := tensor.ArenaOf(anchor.Data, pos.Data, neg.Data)
	out := ar.New(1)
	out.Data[0] = loss
	return newNode("triplet", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / float64(rows)
		ga := ar.New(rows, cols)
		gp := ar.New(rows, cols)
		gn := ar.New(rows, cols)
		for r := 0; r < rows; r++ {
			if !active[r] {
				continue
			}
			base := r * cols
			for c := 0; c < cols; c++ {
				a := anchor.Data.Data[base+c]
				p := pos.Data.Data[base+c]
				n := neg.Data.Data[base+c]
				ga.Data[base+c] = scale * 2 * (n - p)
				gp.Data[base+c] = scale * 2 * (p - a)
				gn.Data[base+c] = scale * 2 * (a - n)
			}
		}
		anchor.accumGrad(ga)
		pos.accumGrad(gp)
		neg.accumGrad(gn)
	}, anchor, pos, neg)
}

// MaskedSoftmaxCrossEntropy is SoftmaxCrossEntropy that ignores rows whose
// label is negative (padding tokens in sequence models).
func MaskedSoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	rows, cols := logits.Data.Dim(0), logits.Data.Dim(1)
	if len(labels) != rows {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), rows))
	}
	probs := tensor.SoftmaxRows(logits.Data)
	loss := 0.0
	count := 0
	for r, lab := range labels {
		if lab < 0 {
			continue
		}
		loss -= math.Log(math.Max(probs.At(r, lab), 1e-300))
		count++
	}
	if count == 0 {
		count = 1
	}
	loss /= float64(count)
	out := scalar(logits.Data, loss)
	return newNode("masked_xent", out, func(g *tensor.Tensor) {
		scale := g.Data[0] / float64(count)
		gl := tensor.NewLike(logits.Data)
		for r, lab := range labels {
			if lab < 0 {
				continue
			}
			base := r * cols
			for c := 0; c < cols; c++ {
				gl.Data[base+c] = scale * probs.Data[base+c]
			}
			gl.Data[base+lab] -= scale
		}
		logits.accumGrad(gl)
	}, logits)
}
