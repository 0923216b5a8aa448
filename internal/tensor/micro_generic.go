//go:build !amd64

package tensor

// micro2x4u4 is micro2x4Go on every architecture but amd64.
func micro2x4u4(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	micro2x4Go(ap, bp, K, dst, ldc, rows, cols)
}

// micro2x4Idx is micro2x4IdxGo on every architecture but amd64.
func micro2x4Idx(x []float64, o0, o1 int, t idxTable, bp, dst []float64, rs, cs, rows, cols int) {
	micro2x4IdxGo(x, o0, o1, t, bp, dst, rs, cs, rows, cols)
}
