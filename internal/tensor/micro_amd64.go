package tensor

// micro2x4SSE2 is micro_amd64.s: the k loop of one 2×4 tile over
// packed panels, two output columns per instruction, stored at dst with
// rows ldc elements apart. K must be at least 1, and the caller checks
// every index the routine touches.
//
//go:noescape
func micro2x4SSE2(ap, bp *float64, K int, dst *float64, ldc int)

// micro2x4IdxSSE2 is micro_amd64.s: micro2x4SSE2 with the two A lanes
// read in place, a_r[k] = x[o_r + idx[k]], and the tile stored with
// element (r, c) at dst[r·rs + c·cs]. K must be at least 1, and the
// caller checks every index the routine touches.
//
//go:noescape
func micro2x4IdxSSE2(x *float64, o0, o1 int, idx *int, K int, bp, dst *float64, rs, cs int)

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
	storeEdge(dst, ldc, 1, rows, cols, acc[:]...)
}

// micro2x4Idx on amd64 runs micro2x4IdxGo's k loop in SSE2
// (micro_amd64.s), in the same arithmetic as micro2x4u4, so every
// output is bitwise micro2x4IdxGo's (a NaN's payload aside). An
// interior tile is stored straight into dst, an edge tile through a
// stack block and storeEdge.
func micro2x4Idx(x []float64, o0, o1 int, t idxTable, bp, dst []float64, rs, cs, rows, cols int) {
	if rows < mr {
		o1 = o0
	}
	var acc [mr * nr]float64
	if K := len(t.off); K > 0 {
		// Bounds of everything the routine reads or writes, checked
		// before a pointer leaves Go. The table ascends, so its first
		// and last entries bound both lanes' reads; the chain on dst
		// refuses a negative stride and never overflows.
		lo, hi := t.off[0], t.off[K-1]
		_, _, _, _ = x[o0+lo], x[o0+hi], x[o1+lo], x[o1+hi]
		_ = bp[nr*K-1]
		if rows >= mr && cols >= nr {
			_ = dst[cs:][cs:][cs:][rs]
			micro2x4IdxSSE2(&x[0], o0, o1, &t.off[0], K, &bp[0], &dst[0], rs, cs)
			return
		}
		micro2x4IdxSSE2(&x[0], o0, o1, &t.off[0], K, &bp[0], &acc[0], nr, 1)
	}
	storeEdge(dst, rs, cs, rows, cols, acc[:]...)
}
