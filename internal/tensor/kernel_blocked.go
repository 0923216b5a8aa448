package tensor

import "aibench/internal/parallel"

// gebpKernels is the optimized engine, the kernel named "blocked": a
// GEBP-style GEMM over mr×nr (2×4) register micro-tiles, plus an
// implicit im2col-GEMM convolution — forward, input gradient and
// weight gradient — that gathers every tap from a zero-bordered image
// copy without a bounds test, never materializes the column matrix,
// its gradient or a GEMM-layout copy of the output gradient, and
// stores the forward product straight into NCHW. A GEMM below the fork
// threshold is too small to repay a copy: microStrided reads both
// operands where they live. A GEMM at or above it packs both operands
// into contiguous panels and drives micro2x4u4 over a 2-D grid of
// cache-sized blockM×blockN output tiles; the conv passes always pack
// or gather into panels for micro2x4u4. Pack panels, padded copies and
// chunk scratch are borrowed from the package's scratch pool
// (scratch.go) and returned before each op does; an op allocates its
// results and nothing that grows with its operands. Every loop forks
// across cores at or above threshold multiply-adds (the conv passes
// walk their own image chunks and read the threshold alone).
// LookupKernels("blocked") returns the one value the program runs,
// builtinBlocked; the package's tests build others to reach every tile
// edge, both GEMM paths and both fork paths.
//
// Determinism contract: every output element accumulates its k terms
// in ascending order into a single accumulator under every block size,
// exactly like the naive kernel's serial loops. Tiles write disjoint
// output regions, so the 2-D parallel decomposition affects scheduling
// only — results are bitwise reproducible for any goroutine
// interleaving, block size and threshold, and match the naive kernel
// bit for bit on finite data (the only divergence is the naive kernel's
// skip of exact-zero multiplicands, which cannot change a finite sum).
type gebpKernels struct {
	// blockM×blockN is the output tile one parallel task owns. Both are
	// positive multiples of mr/nr, so tile origins land on panel
	// boundaries.
	blockM, blockN int
	// threshold is the multiply-add count from which loops fork.
	threshold int
}

func (g *gebpKernels) Name() string { return "blocked" }

// convRowChunk is how many output pixels of one image a convolution
// pass gathers and multiplies at a time. It is a multiple of nr, so a
// chunk's pixels fill whole nr-lane panels, and it sizes the chunk's
// pixel-offset table, a fixed array on the stack.
const convRowChunk = 128

// operand is a strided view of one logical GEMM operand as `lanes`
// vectors of length K: element k of lane i is data[i*laneStride +
// k*kStride]. Lanes are the rows of the left operand and the columns
// of the right one, so the four transpose combinations are four
// stride choices and both operands pack through the same routine.
type operand struct {
	data                []float64
	lanes, K            int
	laneStride, kStride int
}

// rowsOf views a 2-D tensor with its rows as lanes (k runs along a row).
func rowsOf(t *Tensor) operand {
	return operand{t.Data, t.shape[0], t.shape[1], t.shape[1], 1}
}

// colsOf views a 2-D tensor with its columns as lanes (k runs down a column).
func colsOf(t *Tensor) operand {
	return operand{t.Data, t.shape[1], t.shape[0], 1, t.shape[1]}
}

// pack copies an operand into width-lane panels laid out k-major —
// panel p holds lanes [p·width, p·width+width) interleaved as
// dst[(p·K+k)·width+l] — so the micro-kernel reads its width operands
// from one cache line per k step. Only a GEMM at or above the fork
// threshold and the conv passes pack; a smaller GEMM reads its operands
// in place (gemmDirect). The panels are borrowed scratch: the caller
// hands them to putScratch once the product is done. Panels are
// disjoint, so the gate decides scheduling only; the closure the pool
// needs is built on the parallel branch alone, because it escapes into
// the pool and would cost a heap allocation per small product too.
func pack(o operand, width, threshold int) []float64 {
	K := o.K
	panels := (o.lanes + width - 1) / width
	dst := getScratch(panels * K * width)
	if o.lanes*K >= threshold && panels > 1 {
		parallel.For(0, panels, func(p int) {
			packPanel(dst[p*K*width:], o, p*width, width)
		})
		return dst
	}
	for p := 0; p < panels; p++ {
		packPanel(dst[p*K*width:], o, p*width, width)
	}
	return dst
}

// packPanel writes lanes [lane0, lane0+width) of o as one k-major
// panel, dst[k·width+l]. Lanes past the operand's last are written as
// zeros (padding contributes +0/−0 products, which never change a
// finite accumulator); dst is reused scratch, so nothing is assumed of
// what it held.
func packPanel(dst []float64, o operand, lane0, width int) {
	for l := 0; l < width; l++ {
		di := l
		if lane0+l >= o.lanes {
			for k := 0; k < o.K; k++ {
				dst[di] = 0
				di += width
			}
			continue
		}
		si := (lane0 + l) * o.laneStride
		for k := 0; k < o.K; k++ {
			dst[di] = o.data[si]
			di += width
			si += o.kStride
		}
	}
}

// mr×nr is the register micro-tile: mr rows of A and nr columns of B
// held in scalar registers while streaming the shared k dimension.
// Block sizes are multiples of them.
const (
	mr = 2
	nr = 4
)

// storeEdge is the micro-kernel's masked store for edge tiles: it
// writes the rows×cols corner of the accumulator block acc (row-major,
// nr wide) to dst. Interior tiles take the straight-store fast path
// inline instead.
func storeEdge(dst []float64, ldc, rows, cols int, acc ...float64) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*ldc+c] = acc[r*nr+c]
		}
	}
}

// micro2x4u4 is the micro-kernel of every packed product: it fills the
// rows×cols corner of one 2×4 output tile at dst (leading dimension
// ldc) as dot products over the packed panels ap (mr-row, k-major) and
// bp (nr-column, k-major), k ascending with one scalar accumulator per
// element. 2×4 keeps the 8 accumulators plus the 6 operand
// temporaries inside the 15 usable amd64 XMM registers. The k
// loop is unrolled ×4: each accumulator still receives exactly one
// product per k step in ascending k order (the unroll widens the loop
// body, not the addition tree), so the result is bit-identical to the
// rolled loop while amortizing loop control and bounds checks.
func micro2x4u4(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	p := 0
	for ; p+4 <= K; p += 4 {
		a := ap[2*p : 2*p+8]
		b := bp[4*p : 4*p+16]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[2], a[3]
		b0, b1, b2, b3 = b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[4], a[5]
		b0, b1, b2, b3 = b[8], b[9], b[10], b[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[6], a[7]
		b0, b1, b2, b3 = b[12], b[13], b[14], b[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	for ; p < K; p++ {
		a := ap[2*p : 2*p+2]
		b := bp[4*p : 4*p+4]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	if rows >= 2 && cols >= 4 { // interior tile: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		return
	}
	storeEdge(dst, ldc, rows, cols,
		c00, c01, c02, c03,
		c10, c11, c12, c13)
}

// gebpTile fills the rows×cols output region starting at dst (leading
// dimension ldc) from the packed panel ranges. apack's first panel is
// the tile's first mr rows; bpack's first panel its first nr columns.
// Serial and fixed-order: callers decide the parallel decomposition.
// The arithmetic always runs the full mr×nr (padding lanes are zero);
// rows/cols only mask the edge tiles' stores.
func gebpTile(apack, bpack []float64, K, rows, cols int, dst []float64, ldc int) {
	for jp := 0; jp < cols; jp += nr {
		bp := bpack[(jp/nr)*K*nr:]
		jw := min(nr, cols-jp)
		for ip := 0; ip < rows; ip += mr {
			ap := apack[(ip/mr)*K*mr:]
			micro2x4u4(ap, bp, K, dst[ip*ldc+jp:], ldc, min(mr, rows-ip), jw)
		}
	}
}

// microStrided is micro2x4u4 reading both operands in place: it fills
// the rows×cols corner of the 2×4 output block at dst whose rows are
// lanes i0, i0+1 of a and whose columns are lanes j0…j0+3 of b, in the
// same ascending k order into one accumulator per element. A lane past
// an operand's last repeats the last real one, so every load is in
// bounds, and the masked store drops what it computed. Each k step
// walks b's four lanes one at a time against both rows of a: fewer live
// values than loading all six operands first, as micro2x4u4 does, which
// spills registers here and measured slower.
func microStrided(a, b operand, i0, j0 int, dst []float64, ldc, rows, cols int) {
	ia, ib := i0*a.laneStride, j0*b.laneStride
	// Offsets of the block's other lanes from its first, clamped.
	da := min(1, a.lanes-1-i0) * a.laneStride
	db1 := min(1, b.lanes-1-j0) * b.laneStride
	db2 := min(2, b.lanes-1-j0) * b.laneStride
	db3 := min(3, b.lanes-1-j0) * b.laneStride
	ad, bd, ak, bk := a.data, b.data, a.kStride, b.kStride
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for k := 0; k < a.K; k++ {
		a0, a1 := ad[ia], ad[ia+da]
		bv := bd[ib]
		c00 += a0 * bv
		c10 += a1 * bv
		bv = bd[ib+db1]
		c01 += a0 * bv
		c11 += a1 * bv
		bv = bd[ib+db2]
		c02 += a0 * bv
		c12 += a1 * bv
		bv = bd[ib+db3]
		c03 += a0 * bv
		c13 += a1 * bv
		ia += ak
		ib += bk
	}
	if rows >= 2 && cols >= 4 { // interior block: straight stores
		d0 := dst[:4]
		d1 := dst[ldc : ldc+4]
		d0[0], d0[1], d0[2], d0[3] = c00, c01, c02, c03
		d1[0], d1[1], d1[2], d1[3] = c10, c11, c12, c13
		return
	}
	storeEdge(dst, ldc, rows, cols,
		c00, c01, c02, c03,
		c10, c11, c12, c13)
}

// gemmDirect is gemm for a product that does not fork: the output,
// allocated in ar, is walked in 2×4 blocks — gebpTile's order over one
// tile — straight off the operands, with nothing packed or borrowed.
func gemmDirect(ar *Arena, a, b operand) *Tensor {
	m, n := a.lanes, b.lanes
	out := ar.New(m, n)
	for j := 0; j < n; j += nr {
		for i := 0; i < m; i += mr {
			microStrided(a, b, i, j, out.Data[i*n+j:], n, min(mr, m-i), min(nr, n-j))
		}
	}
	return out
}

// gemm computes a product below the fork threshold in place
// (gemmDirect): it has no panel reuse to pay for a copy. A product at
// or above it packs both operands into mr- and nr-lane panels and runs
// the 2-D decomposition: the output, allocated in ar, splits into
// blockM×blockN tiles (disjoint writes, scheduling-independent) handed
// to the pool as a flattened grid; a product that fits one tile walks
// it serially, without building the closure the pool would need.
func (g *gebpKernels) gemm(ar *Arena, a, b operand) *Tensor {
	m, n, K := a.lanes, b.lanes, a.K
	if m*K*n < g.threshold {
		return gemmDirect(ar, a, b)
	}
	apack := pack(a, mr, g.threshold)
	bpack := pack(b, nr, g.threshold)
	out := ar.New(m, n)
	mt := (m + g.blockM - 1) / g.blockM
	nt := (n + g.blockN - 1) / g.blockN
	if mt*nt > 1 {
		parallel.For2D(0, mt, nt, func(ti, tj int) {
			g.tile(apack, bpack, out.Data, m, n, K, ti, tj)
		})
	} else {
		for ti := 0; ti < mt; ti++ {
			for tj := 0; tj < nt; tj++ {
				g.tile(apack, bpack, out.Data, m, n, K, ti, tj)
			}
		}
	}
	putScratch(apack)
	putScratch(bpack)
	return out
}

// tile fills output tile (ti, tj) of the m×n product from the packed
// operands.
func (g *gebpKernels) tile(apack, bpack, out []float64, m, n, K, ti, tj int) {
	i0, j0 := ti*g.blockM, tj*g.blockN
	rows := min(g.blockM, m-i0)
	cols := min(g.blockN, n-j0)
	gebpTile(apack[(i0/mr)*K*mr:], bpack[(j0/nr)*K*nr:], K, rows, cols, out[i0*n+j0:], n)
}

func (g *gebpKernels) MatMul(a, b *Tensor) *Tensor {
	return g.gemm(ArenaOf(a, b), rowsOf(a), colsOf(b))
}

// MatMulT: b is stored n×K, so the logical right operand's columns
// are b's rows.
func (g *gebpKernels) MatMulT(a, b *Tensor) *Tensor {
	return g.gemm(ArenaOf(a, b), rowsOf(a), rowsOf(b))
}

// TMatMul: a is stored K×m, so the logical left operand's rows are
// a's columns.
func (g *gebpKernels) TMatMul(a, b *Tensor) *Tensor {
	return g.gemm(ArenaOf(a, b), colsOf(a), colsOf(b))
}

func (g *gebpKernels) Conv2D(x, weight *Tensor, p Conv2DParams) *Tensor {
	return conv2D(x, weight, p, g.threshold)
}

func (g *gebpKernels) Conv2DBackward(x, weight, grad *Tensor, p Conv2DParams, needX, needW bool) (dx, dw *Tensor) {
	return conv2DBackward(x, weight, grad, p, needX, needW, g.threshold)
}

// convGeom is a convolution's input seen through a zero-bordered copy
// of each image: every channel plane grows by the padding on each side
// to hp×wp, so every tap of every output pixel, padded or not, is an
// in-bounds load and no pass tests a bound per tap. Tap (ch, ky, kx) of
// the pixel whose receptive field starts at offset 0 is at
// (ch·hp+ky)·wp+kx. Task closures capture it and derive the rest (K =
// taps(), a padded image's size()): a closure is a heap allocation per
// call, sized by what it captures.
type convGeom struct {
	c, h, w, k, stride, pad int
	oh, ow, hp, wp          int
}

func convGeomOf(x []int, p Conv2DParams) convGeom {
	h, w := x[2], x[3]
	return convGeom{x[1], h, w, p.Kernel, p.Stride, p.Padding, p.OutDim(h), p.OutDim(w), h + 2*p.Padding, w + 2*p.Padding}
}

func (cg convGeom) taps() int { return cg.c * cg.k * cg.k }
func (cg convGeom) size() int { return cg.c * cg.hp * cg.wp }

// padImage copies the c×h×w image src into dst, size() long, inside its
// zero border. dst is dirty scratch, so the border is written too.
func (cg convGeom) padImage(dst, src []float64) {
	clear(dst)
	for ch := 0; ch < cg.c; ch++ {
		for y := 0; y < cg.h; y++ {
			copy(dst[(ch*cg.hp+y+cg.pad)*cg.wp+cg.pad:][:cg.w], src[(ch*cg.h+y)*cg.w:])
		}
	}
}

// offsets fills off[j] with where output pixel lo+j's receptive field
// starts in a padded image.
func (cg convGeom) offsets(off []int, lo int) {
	for j := range off {
		oy, ox := (lo+j)/cg.ow, (lo+j)%cg.ow
		off[j] = (oy*cg.wp + ox) * cg.stride
	}
}

// gather packs the taps of the pixels at off in the padded image xp as
// nr-lane k-major panels — packPanel's layout of the column matrix's
// rows, read straight from the image. Lanes past the last pixel are
// zeros.
func (cg convGeom) gather(dst, xp []float64, off []int) {
	K := cg.taps()
	for j := 0; j < (len(off)+nr-1)/nr*nr; j++ {
		di := j/nr*K*nr + j%nr
		if j >= len(off) {
			for t := 0; t < K; t++ {
				dst[di] = 0
				di += nr
			}
			continue
		}
		for ch := 0; ch < cg.c; ch++ {
			for ky := 0; ky < cg.k; ky++ {
				for _, v := range xp[off[j]+(ch*cg.hp+ky)*cg.wp:][:cg.k] {
					dst[di] = v
					di += nr
				}
			}
		}
	}
}

// fold adds the taps×pixels product prod (tap t of pixel j at
// prod[t·len(off)+j]) into the padded accumulator acc. A pixel reaches
// an element through at most one tap, and a later pixel reaches it
// through a lower tap, so walking each channel's taps in descending
// order hands every element its terms in ascending pixel order, as
// col2im adds them.
func (cg convGeom) fold(acc, prod []float64, off []int) {
	cr := len(off)
	for ch := 0; ch < cg.c; ch++ {
		for ky := cg.k - 1; ky >= 0; ky-- {
			for kx := cg.k - 1; kx >= 0; kx-- {
				t := (ch*cg.k+ky)*cg.k + kx
				dst, src := acc[(ch*cg.hp+ky)*cg.wp+kx:], prod[t*cr:(t+1)*cr]
				for j, o := range off {
					dst[o] += src[j]
				}
			}
		}
	}
}

// conv2D is an implicit im2col-GEMM with the weights as the left
// operand (mr lanes over output channels) and the output pixels as the
// right one (nr lanes). A task owns an image: chunk by chunk it gathers
// the pixels' taps from one zero-bordered copy of the image into
// panels, and the micro-kernel stores the outC×chunk tile straight into
// the image's NCHW planes (ldc = oh·ow), so there is no column matrix,
// no product scratch and no scatter.
func conv2D(x, weight *Tensor, p Conv2DParams, threshold int) *Tensor {
	n, outC, cg := x.shape[0], weight.shape[0], convGeomOf(x.shape, p)
	if cg.oh <= 0 || cg.ow <= 0 {
		panic("tensor: Conv2D output would be empty")
	}
	K := cg.taps()
	wpack := pack(operand{weight.Data, outC, K, K, 1}, mr, threshold)
	out := ArenaOf(x, weight).New(n, outC, cg.oh, cg.ow)
	parGate(threshold, n, n*cg.oh*cg.ow*K*outC, func(img int) {
		K, plane := cg.taps(), cg.oh*cg.ow
		xp := getScratch(cg.size())
		cg.padImage(xp, x.Data[img*cg.c*cg.h*cg.w:])
		bpack := getScratch((min(convRowChunk, plane) + nr - 1) / nr * nr * K)
		var off [convRowChunk]int
		for lo := 0; lo < plane; lo += convRowChunk {
			px := off[:min(convRowChunk, plane-lo)]
			cg.offsets(px, lo)
			cg.gather(bpack, xp, px)
			gebpTile(wpack, bpack, K, outC, len(px), out.Data[img*outC*plane+lo:], plane)
		}
		putScratch(xp)
		putScratch(bpack)
	})
	putScratch(wpack)
	return out
}

// conv2DBackward is the adjoint of conv2D, equally chunked: neither the
// column matrix, nor its gradient, nor a GEMM-layout copy of g ever
// exists in full. With G the gradient as an (n·oh·ow)×outC matrix and W
// the weights as outC×(c·k·k), dx folds G·W back onto the input and dw
// is Gᵀ times the unfolded input — the same two products, each output
// element accumulated in the same order, as the naive composition.
func conv2DBackward(x, weight, g *Tensor, p Conv2DParams, needX, needW bool, threshold int) (dx, dw *Tensor) {
	ar := ArenaOf(g, x, weight)
	if needX {
		dx = ar.New(x.shape...)
		convBackwardInput(dx, weight, g, p, threshold)
	}
	if needW {
		dw = ar.New(weight.shape...)
		convBackwardWeight(dw, x, g, p, threshold)
	}
	return dx, dw
}

// convBackwardInput computes col2im(G·W) into dx as the taps×pixels
// product Wᵀ·Gᵀ: Wᵀ's rows (taps) are the left operand, packed once;
// a chunk of one image's pixels of g, packed straight from NCHW, is the
// right one. A task owns an image. It folds each chunk's product into a
// zero-bordered accumulator, chunks in ascending order, then copies the
// interior into dx. No other task writes that image, so every dx
// element receives its terms in col2im's ascending (row, tap) order
// whatever the schedule.
func convBackwardInput(dx, weight, g *Tensor, p Conv2DParams, threshold int) {
	n, outC, cg := dx.shape[0], weight.shape[0], convGeomOf(dx.shape, p)
	K := cg.taps()
	// Wᵀ's lanes are W's columns; k runs down them over output channels.
	wpack := pack(operand{weight.Data, K, outC, 1, K}, mr, threshold)
	parGate(threshold, n, n*cg.oh*cg.ow*outC*K, func(img int) {
		K, plane := cg.taps(), cg.oh*cg.ow
		// An image smaller than a chunk borrows scratch for its own size.
		chunk := min(convRowChunk, plane)
		acc := getScratch(cg.size())
		clear(acc)
		gpack := getScratch((chunk + nr - 1) / nr * nr * outC)
		prod := getScratch(K * chunk)
		gimg := g.Data[img*outC*plane : (img+1)*outC*plane]
		var off [convRowChunk]int
		for lo := 0; lo < plane; lo += chunk {
			px := off[:min(chunk, plane-lo)]
			// Pixel lo+j of channel oc sits at gimg[oc·plane+lo+j].
			pixels := operand{gimg[lo:], len(px), outC, 1, plane}
			for r := 0; r < len(px); r += nr {
				packPanel(gpack[r*outC:], pixels, r, nr)
			}
			gebpTile(wpack, gpack, outC, K, len(px), prod, len(px))
			cg.offsets(px, lo)
			cg.fold(acc, prod, px)
		}
		dimg := dx.Data[img*cg.c*cg.h*cg.w:]
		for ch := 0; ch < cg.c; ch++ {
			for y := 0; y < cg.h; y++ {
				copy(dimg[(ch*cg.h+y)*cg.w:][:cg.w], acc[(ch*cg.hp+y+cg.pad)*cg.wp+cg.pad:])
			}
		}
		putScratch(acc)
		putScratch(gpack)
		putScratch(prod)
	})
	putScratch(wpack)
}

// convBackwardWeight fills dw = Gᵀ·im2col(x). The reduction runs over
// all n·oh·ow pixels, one ascending accumulator chain per element, as
// each micro-kernel call streams the whole of it. One borrow holds the
// padded images, then g packed into mr-row panels (lanes are output
// channels, k runs over every pixel of every image); each task gathers
// one nr-wide panel of taps — nr columns of the column matrix — output
// row by output row from the padded images and walks it against g.
func convBackwardWeight(dw, x, g *Tensor, p Conv2DParams, threshold int) {
	n, outC, cg := x.shape[0], g.shape[1], convGeomOf(x.shape, p)
	K, R := cg.taps(), n*cg.oh*cg.ow
	buf := getScratch(n*cg.size() + (outC+mr-1)/mr*mr*R)
	parGate(threshold, n, outC*R, func(img int) {
		n, plane, size := x.shape[0], cg.oh*cg.ow, cg.size()
		cg.padImage(buf[img*size:(img+1)*size], x.Data[img*cg.c*cg.h*cg.w:])
		// Channel oc of this image is plane contiguous pixels, which land
		// at k = img·plane onwards in oc's panel.
		channels := operand{g.Data[img*outC*plane:], outC, plane, plane, 1}
		for mp := 0; mp*mr < outC; mp++ {
			packPanel(buf[n*size+(mp*n+img)*plane*mr:], channels, mp*mr, mr)
		}
	})
	parGate(threshold, (K+nr-1)/nr, outC*R*K, func(jp int) {
		n, K, size := x.shape[0], cg.taps(), cg.size()
		R, j0 := n*cg.oh*cg.ow, jp*nr
		cols := getScratch(R * nr)
		for l := 0; l < nr; l++ {
			tap := j0 + l
			if tap >= K { // a lane past the last tap
				for r := 0; r < R; r++ {
					cols[r*nr+l] = 0
				}
				continue
			}
			ch, ky, kx := tap/(cg.k*cg.k), tap/cg.k%cg.k, tap%cg.k
			src := buf[(ch*cg.hp+ky)*cg.wp+kx:]
			di := l
			for img := 0; img < n; img++ {
				for oy := 0; oy < cg.oh; oy++ {
					row := src[img*size+oy*cg.stride*cg.wp:]
					for ox := 0; ox < cg.ow; ox++ {
						cols[di] = row[ox*cg.stride]
						di += nr
					}
				}
			}
		}
		gebpTile(buf[n*size:], cols, R, outC, min(nr, K-j0), dw.Data[j0:], K)
		putScratch(cols)
	})
	putScratch(buf)
}
