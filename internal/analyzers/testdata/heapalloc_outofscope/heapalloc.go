// The same heap-constructing op as the heapalloc golden file, checked
// as aibench/internal/models: model code builds targets and masks with
// the heap constructors on purpose, so the analyzer must stay silent
// and this file has no want comments.
package heapalloc

import "aibench/internal/tensor"

func heapResult(a *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape()...)
	copy(out.Data, a.Data)
	return out
}
