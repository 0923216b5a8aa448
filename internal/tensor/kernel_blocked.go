package tensor

import "aibench/internal/parallel"

// gebpKernels is the optimized engine, the kernel named "blocked": a
// GEBP-style GEMM over mr×nr (2×4) register micro-tiles, plus an
// implicit im2col-GEMM convolution — forward, input gradient and
// weight gradient — that reads every tap from a zero-bordered image
// copy without a bounds test, never materializes the column matrix,
// its gradient or a GEMM-layout copy of the output gradient, and
// stores the forward product straight into NCHW. A GEMM below the fork
// threshold is too small to repay a copy: microStrided reads both
// operands where they live. A GEMM at or above it packs both operands
// into contiguous panels and drives micro2x4u4 over a 2-D grid of
// cache-sized blockM×blockN output tiles. The forward and the weight
// gradient read their taps in place through an index table (idxTable)
// and run micro2x4Idx against a packed panel; the input gradient packs
// for micro2x4u4 and folds its product. Pack panels, padded copies,
// index tables and chunk scratch are borrowed from the package's
// scratch pool (scratch.go), and each loop body is a small task struct
// borrowed from a free list (parallel.FreeList); both go back before
// the op returns, so once warm an op allocates its result and nothing
// else, whether it forks or not. Every loop forks across cores at or
// above threshold multiply-adds (the conv passes split by image or by
// tap pair and read the threshold alone).
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

// convRowChunk is how many output pixels of one image the input
// gradient packs and multiplies at a time. It is a multiple of nr, so a
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
// disjoint, so the gate decides scheduling only.
func pack(o operand, width, threshold int) []float64 {
	panels := (o.lanes + width - 1) / width
	dst := getScratch(panels * o.K * width)
	borrowGate(&packTasks, packTask{dst, o, width}, threshold, panels, o.lanes*o.K)
	return dst
}

// packTask is pack's loop body: index p packs panel p.
type packTask struct {
	dst   []float64
	o     operand
	width int
}

var packTasks parallel.FreeList[packTask]

func (t *packTask) Run(p int) {
	packPanel(t.dst[p*t.o.K*t.width:], t.o, p*t.width, t.width)
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

// storeEdge is the micro-kernels' masked store for edge tiles: it
// writes the rows×cols corner of the accumulator block acc (row-major,
// nr wide) to dst, element (r, c) at dst[r·rs + c·cs]. Interior tiles
// of the packed kernels take the straight-store fast path inline
// instead.
func storeEdge(dst []float64, rs, cs, rows, cols int, acc ...float64) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[r*rs+c*cs] = acc[r*nr+c]
		}
	}
}

// micro2x4Go is the micro-kernel of every packed product in portable
// Go: it fills the rows×cols corner of one 2×4 output tile at dst
// (leading dimension ldc) as dot products over the packed panels ap
// (mr-row, k-major) and bp (nr-column, k-major), k ascending with one
// scalar accumulator per element, started at +0. It is micro2x4u4 on
// every architecture but amd64, whose micro2x4u4 runs the same
// arithmetic two lanes per SSE2 instruction (micro_amd64.s) and is
// tested against this loop. The k loop is unrolled ×4: each
// accumulator still receives exactly one product per k step in
// ascending k order (the unroll widens the loop body, not the addition
// tree), so the result is bit-identical to the rolled loop while
// amortizing loop control and bounds checks.
func micro2x4Go(ap, bp []float64, K int, dst []float64, ldc, rows, cols int) {
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
	storeEdge(dst, ldc, 1, rows, cols,
		c00, c01, c02, c03,
		c10, c11, c12, c13)
}

// idxTable is the index table of micro2x4Idx: entry k is where a
// lane's k-th operand element sits, counted from the lane's base. The
// entries ascend (repeats allowed), so the first and the last bound all
// the others; newIdxTable is the one constructor, and release hands the
// table back to the free list.
type idxTable struct{ off []int }

// newIdxTable borrows a table of n0·n1·n2 entries and fills it with
// i·s0 + j·s1 + l·s2 for i < n0, j < n1, l < n2 in row-major order. It
// panics unless the step of each level with more than one entry covers
// the span of the levels inside it, which is what makes the entries
// ascend.
func newIdxTable(n0, s0, n1, s1, n2, s2 int) idxTable {
	span := 0
	for _, l := range [...][2]int{{n2, s2}, {n1, s1}, {n0, s0}} {
		if l[0] > 1 {
			if l[1] < span {
				panic("tensor: index table would not ascend")
			}
			span += (l[0] - 1) * l[1]
		}
	}
	off := indexFree.get(n0 * n1 * n2)
	k := 0
	for i := 0; i < n0; i++ {
		for j := 0; j < n1; j++ {
			for l := 0; l < n2; l++ {
				off[k] = i*s0 + j*s1 + l*s2
				k++
			}
		}
	}
	return idxTable{off}
}

func (t idxTable) release() { indexFree.put(t.off) }

// micro2x4IdxGo is the micro-kernel of the conv passes in portable Go.
// Its left operand is read in place through t: lane r's k-th element is
// x[o_r + t.off[k]], and o1 is read only when rows is 2. Its right
// operand is the nr-column k-major panel bp. It fills the rows×cols
// corner of one 2×4 output tile, element (r, c) at dst[r·rs + c·cs],
// with one scalar accumulator per element started at +0, k ascending.
// It is micro2x4Idx on every architecture but amd64, whose micro2x4Idx
// runs the same arithmetic in SSE2 (micro_amd64.s) and is tested
// against this loop. Each product is rounded on its own (float64(a·b))
// so no architecture fuses it into the add.
func micro2x4IdxGo(x []float64, o0, o1 int, t idxTable, bp, dst []float64, rs, cs, rows, cols int) {
	if rows < mr {
		o1 = o0
	}
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	for k, off := range t.off {
		a0, a1 := x[o0+off], x[o1+off]
		b := bp[nr*k : nr*k+nr]
		c00 += float64(a0 * b[0])
		c01 += float64(a0 * b[1])
		c02 += float64(a0 * b[2])
		c03 += float64(a0 * b[3])
		c10 += float64(a1 * b[0])
		c11 += float64(a1 * b[1])
		c12 += float64(a1 * b[2])
		c13 += float64(a1 * b[3])
	}
	storeEdge(dst, rs, cs, rows, cols,
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
// values than loading all six operands first, as micro2x4Go does, which
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
	storeEdge(dst, ldc, 1, rows, cols,
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
// to the pool as a flattened grid, row-major; a product that fits one
// tile walks it on the calling goroutine.
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
	borrowGate(&tileTasks, tileTask{g, apack, bpack, out.Data, m, n, K, nt}, g.threshold, mt*nt, m*K*n)
	putScratch(apack)
	putScratch(bpack)
	return out
}

// tileTask is gemm's loop body: index i fills output tile (i/nt, i%nt)
// of the m×n product from the packed operands.
type tileTask struct {
	g                 *gebpKernels
	apack, bpack, out []float64
	m, n, K, nt       int
}

var tileTasks parallel.FreeList[tileTask]

func (t *tileTask) Run(i int) {
	g, K, n := t.g, t.K, t.n
	i0, j0 := i/t.nt*g.blockM, i%t.nt*g.blockN
	rows := min(g.blockM, t.m-i0)
	cols := min(g.blockN, n-j0)
	gebpTile(t.apack[(i0/mr)*K*mr:], t.bpack[(j0/nr)*K*nr:], K, rows, cols, t.out[i0*n+j0:], n)
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
// output pixel (oy, ox) is at pixel(oy·ow+ox) + tap((ch·k+ky)·k+kx) in
// a padded image, so a pass reads its taps in place through an
// idxTable over one of the two. The passes' task structs hold it and
// derive the rest (K = taps(), a padded image's size()).
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

// tap is where tap t = (ch·k+ky)·k+kx sits from the start of a pixel's
// receptive field: (ch·hp+ky)·wp+kx.
func (cg convGeom) tap(t int) int {
	return (t/(cg.k*cg.k)*cg.hp+t/cg.k%cg.k)*cg.wp + t%cg.k
}

// pixel is where output pixel p = oy·ow+ox's receptive field starts in
// a padded image: (oy·wp+ox)·stride.
func (cg convGeom) pixel(p int) int {
	return (p/cg.ow*cg.wp + p%cg.ow) * cg.stride
}

// tapTable is tap over every tap, in ascending order.
func (cg convGeom) tapTable() idxTable {
	return newIdxTable(cg.c, cg.hp*cg.wp, cg.k, cg.wp, cg.k, 1)
}

// pixelTable is pixel over every output pixel of n padded images laid
// end to end, image img's at img·size() onwards, in ascending order.
func (cg convGeom) pixelTable(n int) idxTable {
	return newIdxTable(n, cg.size(), cg.oh, cg.wp*cg.stride, cg.ow, cg.stride)
}

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

// offsets fills off[j] with pixel(lo+j).
func (cg convGeom) offsets(off []int, lo int) {
	for j := range off {
		off[j] = cg.pixel(lo + j)
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

// conv2D is a true implicit im2col-GEMM: the output pixels are the left
// operand (mr lanes), read in place from a zero-bordered copy of their
// image through the tap table, and the weights the right one, packed
// once as nr-lane panels over output channels with k running over taps.
// A task owns an image: for each pixel pair and each channel panel,
// micro2x4Idx stores the 2×4 tile straight into the image's NCHW planes
// (pixels 1 apart, channels oh·ow apart), so there is no column matrix,
// no tap copy, no product scratch and no scatter. The tiles cover every
// output element, edge tiles included, so the output comes from Take
// with no zero fill under it.
func conv2D(x, weight *Tensor, p Conv2DParams, threshold int) *Tensor {
	n, outC, cg := x.shape[0], weight.shape[0], convGeomOf(x.shape, p)
	if cg.oh <= 0 || cg.ow <= 0 {
		panic("tensor: Conv2D output would be empty")
	}
	K := cg.taps()
	wpack := pack(operand{weight.Data, outC, K, K, 1}, nr, threshold)
	taps := cg.tapTable()
	out := ArenaOf(x, weight).Take(n, outC, cg.oh, cg.ow)
	borrowGate(&convForwardTasks, convForward{cg, x.Data, wpack, out.Data, taps, outC}, threshold, n, n*cg.oh*cg.ow*K*outC)
	taps.release()
	putScratch(wpack)
	return out
}

// convForward is conv2D's loop body: index img convolves image img.
type convForward struct {
	cg            convGeom
	x, wpack, out []float64
	taps          idxTable
	outC          int
}

var convForwardTasks parallel.FreeList[convForward]

func (t *convForward) Run(img int) {
	cg, outC := t.cg, t.outC
	K, plane := cg.taps(), cg.oh*cg.ow
	xp := getScratch(cg.size())
	cg.padImage(xp, t.x[img*cg.c*cg.h*cg.w:])
	out := t.out[img*outC*plane:]
	for p := 0; p < plane; p += mr {
		o0, o1, rows := cg.pixel(p), cg.pixel(p+1), min(mr, plane-p)
		for j0 := 0; j0 < outC; j0 += nr {
			micro2x4Idx(xp, o0, o1, t.taps, t.wpack[j0*K:], out[j0*plane+p:], 1, plane, rows, min(nr, outC-j0))
		}
	}
	putScratch(xp)
}

// conv2DBackward is the adjoint of conv2D: neither the column matrix,
// nor its gradient, nor a GEMM-layout copy of g ever exists in full.
// With G the gradient as an (n·oh·ow)×outC matrix and W the weights as
// outC×(c·k·k), dx folds G·W back onto the input and dw is Gᵀ times
// the unfolded input — the same two products, each output element
// accumulated in the same order, as the naive composition.
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
	borrowGate(&convInputTasks, convInput{cg, dx.Data, wpack, g.Data, outC}, threshold, n, n*cg.oh*cg.ow*outC*K)
	putScratch(wpack)
}

// convInput is convBackwardInput's loop body: index img folds image
// img's input gradient.
type convInput struct {
	cg           convGeom
	dx, wpack, g []float64
	outC         int
}

var convInputTasks parallel.FreeList[convInput]

func (t *convInput) Run(img int) {
	cg, outC := t.cg, t.outC
	K, plane := cg.taps(), cg.oh*cg.ow
	// An image smaller than a chunk borrows scratch for its own size.
	chunk := min(convRowChunk, plane)
	acc := getScratch(cg.size())
	clear(acc)
	gpack := getScratch((chunk + nr - 1) / nr * nr * outC)
	prod := getScratch(K * chunk)
	gimg := t.g[img*outC*plane : (img+1)*outC*plane]
	var off [convRowChunk]int
	for lo := 0; lo < plane; lo += chunk {
		px := off[:min(chunk, plane-lo)]
		// Pixel lo+j of channel oc sits at gimg[oc·plane+lo+j].
		pixels := operand{gimg[lo:], len(px), outC, 1, plane}
		for r := 0; r < len(px); r += nr {
			packPanel(gpack[r*outC:], pixels, r, nr)
		}
		gebpTile(t.wpack, gpack, outC, K, len(px), prod, len(px))
		cg.offsets(px, lo)
		cg.fold(acc, prod, px)
	}
	dimg := t.dx[img*cg.c*cg.h*cg.w:]
	for ch := 0; ch < cg.c; ch++ {
		for y := 0; y < cg.h; y++ {
			copy(dimg[(ch*cg.h+y)*cg.w:][:cg.w], acc[(ch*cg.hp+y+cg.pad)*cg.wp+cg.pad:])
		}
	}
	putScratch(acc)
	putScratch(gpack)
	putScratch(prod)
}

// convBackwardWeight fills dw = Gᵀ·im2col(x). The reduction runs over
// all n·oh·ow pixels, one ascending accumulator chain per element, as
// each micro-kernel call streams the whole of it. One borrow holds the
// padded images, then g packed into nr-lane panels (lanes are output
// channels, k runs over every pixel of every image). A task owns a pair
// of taps: the two lanes are the taps' offsets, read in place through
// the pixel table, and micro2x4Idx stores each 2×4 tile into dw (taps 1
// apart, channels K apart).
func convBackwardWeight(dw, x, g *Tensor, p Conv2DParams, threshold int) {
	n, outC, cg := x.shape[0], g.shape[1], convGeomOf(x.shape, p)
	K, R := cg.taps(), n*cg.oh*cg.ow
	buf := getScratch(n*cg.size() + (outC+nr-1)/nr*nr*R)
	pixels := cg.pixelTable(n)
	w := convWeight{cg, buf, x.Data, g.Data, dw.Data, pixels, n, outC}
	borrowGate(&convPadPackTasks, convPadPack(w), threshold, n, outC*R)
	borrowGate(&convTapsTasks, convTaps(w), threshold, (K+mr-1)/mr, outC*R*K)
	pixels.release()
	putScratch(buf)
}

// convWeight is what convBackwardWeight's two loops share. As a
// convPadPack, index img pads image img and packs its output gradient;
// as a convTaps, index tp multiplies tap pair tp against the packed
// gradient.
type convWeight struct {
	cg            convGeom
	buf, x, g, dw []float64
	pixels        idxTable
	n, outC       int
}

type (
	convPadPack convWeight
	convTaps    convWeight
)

var (
	convPadPackTasks parallel.FreeList[convPadPack]
	convTapsTasks    parallel.FreeList[convTaps]
)

func (t *convPadPack) Run(img int) {
	cg, n, outC := t.cg, t.n, t.outC
	plane, size := cg.oh*cg.ow, cg.size()
	cg.padImage(t.buf[img*size:(img+1)*size], t.x[img*cg.c*cg.h*cg.w:])
	// Channel oc of this image is plane contiguous pixels, which land
	// at k = img·plane onwards in oc's panel.
	channels := operand{t.g[img*outC*plane:], outC, plane, plane, 1}
	for jp := 0; jp*nr < outC; jp++ {
		packPanel(t.buf[n*size+(jp*n+img)*plane*nr:], channels, jp*nr, nr)
	}
}

func (t *convTaps) Run(tp int) {
	cg, outC := t.cg, t.outC
	K, R, t0 := cg.taps(), len(t.pixels.off), tp*mr
	gpack := t.buf[t.n*cg.size():]
	o0, o1, rows := cg.tap(t0), cg.tap(t0+1), min(mr, K-t0)
	for j0 := 0; j0 < outC; j0 += nr {
		micro2x4Idx(t.buf, o0, o1, t.pixels, gpack[j0*R:], t.dw[j0*K+t0:], 1, K, rows, min(nr, outC-j0))
	}
}
