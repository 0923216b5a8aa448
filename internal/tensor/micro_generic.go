//go:build !amd64

package tensor

// micro2x4u4 is micro2x4Go on every architecture but amd64.
func micro2x4u4(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	micro2x4Go(ap, bp, K, dst, ldc, rows, cols)
}
