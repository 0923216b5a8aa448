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
	node := newNode(out, logits)
	if node.requiresGrad {
		node.back = softmaxCrossEntropyBack
		node.saved[0] = probs
		node.ints = labels
	}
	return node
}

// softmaxCrossEntropyBack reads the probabilities and the labels from
// the save area.
func softmaxCrossEntropyBack(n *Value, g *tensor.Tensor) {
	logits, probs, labels := n.parents[0], n.saved[0], n.ints
	rows, cols := logits.Data.Dim(0), logits.Data.Dim(1)
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
	node := newNode(out, pred)
	if node.requiresGrad {
		node.back = mseLossBack
		node.saved[0] = target
	}
	return node
}

func mseLossBack(node *Value, g *tensor.Tensor) {
	pred, target := node.parents[0], node.saved[0]
	scale := 2 * g.Data[0] / float64(pred.Data.Size())
	gp := tensor.NewLike(pred.Data)
	for i := range gp.Data {
		gp.Data[i] = scale * (pred.Data.Data[i] - target.Data[i])
	}
	pred.accumGrad(gp)
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
	node := newNode(out, pred)
	if node.requiresGrad {
		node.back = l1LossBack
		node.saved[0] = target
	}
	return node
}

func l1LossBack(node *Value, g *tensor.Tensor) {
	pred, target := node.parents[0], node.saved[0]
	scale := g.Data[0] / float64(pred.Data.Size())
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
	node := newNode(out, logits)
	if node.requiresGrad {
		node.back = bceWithLogitsBack
		node.saved[0] = target
	}
	return node
}

func bceWithLogitsBack(node *Value, g *tensor.Tensor) {
	logits, target := node.parents[0], node.saved[0]
	scale := g.Data[0] / float64(logits.Data.Size())
	gp := tensor.NewLike(logits.Data)
	for i, x := range logits.Data.Data {
		s := 1 / (1 + math.Exp(-x))
		gp.Data[i] = scale * (s - target.Data[i])
	}
	logits.accumGrad(gp)
}

// TripletLoss computes mean(max(0, ||a-p||² - ||a-n||² + margin)) over
// rows of anchor/positive/negative embedding matrices — the FaceNet
// training objective.
func TripletLoss(anchor, pos, neg *Value, margin float64) *Value {
	rows, cols := anchor.Data.Dim(0), anchor.Data.Dim(1)
	ar := tensor.ArenaOf(anchor.Data, pos.Data, neg.Data)
	active := ar.New(rows) // 1 where the margin is violated
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
			active.Data[r] = 1
		}
	}
	loss /= float64(rows)
	out := ar.New(1)
	out.Data[0] = loss
	node := newNode(out, anchor, pos, neg)
	if node.requiresGrad {
		node.back = tripletLossBack
		node.saved[0] = active
	}
	return node
}

// tripletLossBack reads which rows violate the margin from the save
// area.
func tripletLossBack(node *Value, g *tensor.Tensor) {
	anchor, pos, neg := node.parents[0], node.parents[1], node.parents[2]
	active := node.saved[0]
	rows, cols := anchor.Data.Dim(0), anchor.Data.Dim(1)
	ar := tensor.ArenaOf(node.Data)
	scale := g.Data[0] / float64(rows)
	ga := ar.New(rows, cols)
	gp := ar.New(rows, cols)
	gn := ar.New(rows, cols)
	for r := 0; r < rows; r++ {
		if active.Data[r] == 0 {
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
}

// MaskedSoftmaxCrossEntropy is SoftmaxCrossEntropy that ignores rows whose
// label is negative (padding tokens in sequence models).
func MaskedSoftmaxCrossEntropy(logits *Value, labels []int) *Value {
	rows := logits.Data.Dim(0)
	if len(labels) != rows {
		panic(fmt.Sprintf("autograd: %d labels for %d rows", len(labels), rows))
	}
	probs := tensor.SoftmaxRows(logits.Data)
	loss := 0.0
	for r, lab := range labels {
		if lab < 0 {
			continue
		}
		loss -= math.Log(math.Max(probs.At(r, lab), 1e-300))
	}
	loss /= float64(unmasked(labels))
	out := scalar(logits.Data, loss)
	node := newNode(out, logits)
	if node.requiresGrad {
		node.back = maskedSoftmaxCrossEntropyBack
		node.saved[0] = probs
		node.ints = labels
	}
	return node
}

// unmasked is the loss's divisor: the number of rows with a label, or
// 1 when every row is masked.
func unmasked(labels []int) int {
	count := 0
	for _, lab := range labels {
		if lab >= 0 {
			count++
		}
	}
	return max(count, 1)
}

// maskedSoftmaxCrossEntropyBack reads the probabilities and the labels
// from the save area.
func maskedSoftmaxCrossEntropyBack(n *Value, g *tensor.Tensor) {
	logits, probs, labels := n.parents[0], n.saved[0], n.ints
	cols := logits.Data.Dim(1)
	scale := g.Data[0] / float64(unmasked(labels))
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
}
