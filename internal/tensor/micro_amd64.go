package tensor

// micro2x4SSE2 is micro_amd64.s: the k loop of one 2×4 tile over
// packed panels, two output columns per instruction, stored at dst with
// rows ldc elements apart. K must be at least 1, and the caller checks
// every index the routine touches.
//
//go:noescape
func micro2x4SSE2(ap, bp *float64, K int, dst *float64, ldc int)

// micro2x4u4 on amd64 runs the tile's k loop in SSE2 (micro_amd64.s),
// in micro2x4Go's arithmetic: each output element has its own
// accumulator lane, started at +0, and takes one MULPD product then one
// ADDPD per k step, k ascending — never a fused multiply-add — so every
// output is bitwise micro2x4Go's (a NaN's payload aside). SSE2 is part
// of the amd64 baseline, so there is no feature test. The routine
// stores an interior tile straight into dst; an edge tile lands in a
// stack block first, and storeEdge copies its rows×cols corner.
func micro2x4u4(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var acc [mr * nr]float64
	if K > 0 {
		// Bounds of everything the routine reads or writes, checked
		// before a pointer leaves Go: dst[ldc:] also refuses a
		// negative ldc.
		_, _ = ap[mr*K-1], bp[nr*K-1]
		if rows >= mr && cols >= nr {
			_ = dst[ldc:][nr-1]
			micro2x4SSE2(&ap[0], &bp[0], K, &dst[0], ldc)
			return
		}
		micro2x4SSE2(&ap[0], &bp[0], K, &acc[0], nr)
	}
	storeEdge(dst, ldc, rows, cols, acc[:]...)
}
