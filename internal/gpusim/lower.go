package gpusim

import (
	"fmt"
	"math"
	"math/bits"

	"aibench/internal/parallel"
	"aibench/internal/workload"
)

const bytesPerElem = 4 // FP32 training

// Lower translates a workload model into the stream of kernel launches
// one training iteration (forward + backward when training is set) of a
// batch executes, executes each launch on dev and hands it to emit in
// stream order; it keeps no list of its own. The mapping follows how
// PyTorch+cuDNN dispatch these layer types: convolutions become
// implicit-GEMM/winograd kernels plus strided data-arrangement kernels,
// linear layers become sgemm calls, recurrent layers launch
// per-timestep GEMM and element-wise kernels, and every iteration
// begins with a host-to-device input copy and ends with element-wise
// optimizer updates.
//
// Each distinct work executes once per call. A loop that launches the
// same work over and over — a recurrent layer's timesteps, attention's
// passes, the splitK workspace passes of a small-batch convolution —
// builds its kernels once, before the loop, and emits the same kernels
// on every iteration, renaming those whose function name depends on the
// pass. A kernel built with a work an earlier one executed (the same
// category position, FLOPs and bytes) copies that work's results
// instead of executing again; Execute reads nothing else, so the copy
// is what it would compute, bit for bit. The kernel emit receives
// belongs to Lower and is valid only for the call: emit copies what it
// keeps and changes nothing. Kernels, works and the table that finds
// them live in scratch borrowed for the call, so a warmed Lower
// allocates nothing.
func Lower(m workload.Model, batch int, training bool, dev Device, emit func(*Kernel)) {
	sc := scratches.Get()
	lower(m, batch, training, dev, sc, emit)
	scratches.Put(sc)
}

// kernelSlots is the storage lowering builds and executes kernels in:
// the most kernels one loop emits over and over (attention's six).
type kernelSlots [6]Kernel

// scratch is what one lowering borrows: the slots it builds kernels in,
// the distinct works it has executed, an open-addressed table that
// finds a work by its key, and, for Run, the index of each launch's
// work in stream order. It holds no pointer into the heap but its own
// slices, which keep their capacity from one lowering to the next.
type scratch struct {
	ks    kernelSlots
	works []work
	slots []int32 // a work's index + 1 at its hash position, 0 if empty
	order []int32 // per launch, its work's index (filled by Run)
}

// scratches is where lowerings borrow their scratch: one per lowering
// running at once, kept across calls.
var scratches parallel.FreeList[scratch]

// work is one distinct executed work: the key Execute reads and the
// results it gave.
type work struct {
	ci                   int
	flops, read, written uint64 // math.Float64bits of the kernel's work
	time                 float64
	metrics              Metrics
	stalls               StallBreakdown
}

// minSlots is the work table's starting size, a power of two: twice
// the most distinct works a roster spec executes at its own batch.
const minSlots = 512

// lowering is where one Lower call's kernels execute and the scratch
// they are built in. emit travels beside it as a parameter: escape
// analysis does not tell one field from another, so a struct holding
// both would send Run's fold closure to the heap with the scratch.
type lowering struct {
	dev Device
	sc  *scratch
}

// lower is Lower with its kernels built and its works kept in sc,
// which it empties first.
func lower(m workload.Model, batch int, training bool, dev Device, sc *scratch, emit func(*Kernel)) {
	if len(sc.slots) == 0 {
		sc.slots = make([]int32, minSlots)
	} else {
		clear(sc.slots)
	}
	sc.works, sc.order = sc.works[:0], sc.order[:0]
	lo := lowering{dev: dev, sc: sc}
	b := float64(batch)

	// Input transfer.
	inputElems := 0.0
	if len(m.Layers) > 0 {
		inputElems = float64(inputVolume(&m.Layers[0]))
	}
	emit(lo.launch(iMemcpy, 0, "", 0, b*inputElems*bytesPerElem, b*inputElems*bytesPerElem))

	for i := range m.Layers {
		lo.layer(&m.Layers[i], b, training, emit)
	}

	if training {
		// Optimizer update: read grad + read/write weights + momentum.
		params := float64(m.Params())
		emit(lo.launch(iElementwise, 0, "sgd_momentum_update_kernel", 4*params, 3*params*bytesPerElem, 2*params*bytesPerElem))
	}
}

// build makes slot i a kernel of the category at position ci with the
// given name and work, gives it its results, and returns it. A kernel
// built without a name is named by pick before it is emitted.
func (lo *lowering) build(i, ci int, name string, flops, read, written float64) *Kernel {
	k := &lo.sc.ks[i]
	k.Category, k.ci = categories[ci], ci
	k.Name, k.fn = name, -1
	if name != "" {
		k.fn = funcOf(ci, name)
	}
	k.FLOPs, k.BytesRead, k.BytesWritten = flops, read, written
	lo.execute(k)
	return k
}

// pick names k by the function its category picks for variant.
func (k *Kernel) pick(variant int) {
	k.fn = pickFunc(k.ci, variant)
	k.Name = funcNames[k.fn]
}

// execute sets k's results and work index: copied from the table when
// this lowering has executed k's work before, from Execute otherwise,
// which then adds the work to the table.
func (lo *lowering) execute(k *Kernel) {
	sc := lo.sc
	f, r, w := math.Float64bits(k.FLOPs), math.Float64bits(k.BytesRead), math.Float64bits(k.BytesWritten)
	mask := uint64(len(sc.slots) - 1)
	i := workHash(k.ci, f, r, w) & mask
	for ; sc.slots[i] != 0; i = (i + 1) & mask {
		wk := &sc.works[sc.slots[i]-1]
		if wk.ci == k.ci && wk.flops == f && wk.read == r && wk.written == w {
			k.Time, k.Metrics, k.Stalls = wk.time, wk.metrics, wk.stalls
			k.wi = sc.slots[i] - 1
			return
		}
	}
	Execute(k, lo.dev)
	k.wi = int32(len(sc.works))
	sc.works = append(sc.works, work{ci: k.ci, flops: f, read: r, written: w,
		time: k.Time, metrics: k.Metrics, stalls: k.Stalls})
	sc.slots[i] = k.wi + 1
	if 2*len(sc.works) > len(sc.slots) {
		sc.rehash(2 * len(sc.slots))
	}
}

// rehash rebuilds the work table at n slots.
func (sc *scratch) rehash(n int) {
	sc.slots = make([]int32, n)
	mask := uint64(n - 1)
	for wi := range sc.works {
		wk := &sc.works[wi]
		i := workHash(wk.ci, wk.flops, wk.read, wk.written) & mask
		for sc.slots[i] != 0 {
			i = (i + 1) & mask
		}
		sc.slots[i] = int32(wi) + 1
	}
}

// workHash mixes a work's key into a table position. A float that
// counts whole bytes or FLOPs has its low mantissa bits clear, so the
// high bits are folded down before the table masks them off.
func workHash(ci int, f, r, w uint64) uint64 {
	h := f ^ bits.RotateLeft64(r, 21) ^ bits.RotateLeft64(w, 42) ^ uint64(ci)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// launch builds a one-off launch in slot 0; an empty name picks the
// category's function by variant.
func (lo *lowering) launch(ci, variant int, name string, flops, read, written float64) *Kernel {
	k := lo.build(0, ci, name, flops, read, written)
	if name == "" {
		k.pick(variant)
	}
	return k
}

// inputVolume estimates the input elements of the first layer.
func inputVolume(l *workload.Layer) int {
	switch l.Kind {
	case workload.Conv, workload.Pool:
		return l.InC * l.H * l.W
	case workload.Linear:
		m := l.M
		if m == 0 {
			m = 1
		}
		return m * l.In
	case workload.LSTM, workload.GRU:
		return l.SeqLen * l.Input
	case workload.Attention:
		return l.Seq * l.Dim
	case workload.Embedding:
		return l.Lookups
	default:
		return l.Elems
	}
}

// layer emits the kernels for one layer.
func (lo *lowering) layer(l *workload.Layer, b float64, training bool, emit func(*Kernel)) {
	fwdFLOPs := b * l.FLOPs()
	actBytes := b * float64(l.Activations()) * bytesPerElem
	paramBytes := float64(l.Params()) * bytesPerElem

	switch l.Kind {
	case workload.Conv:
		variant := l.OutC / 64
		inBytes := b * float64(l.InC*l.H*l.W) * bytesPerElem
		// Forward: strided data-arrangement + the convolution itself. At
		// small batch cuDNN dispatches the stridedB_splitK path, which
		// materializes the full K² im2col workspace (the Table 7
		// maxwell_scudnn_*_stridedB_splitK kernels); at large batch the
		// implicit-GEMM path only stages a bounded tile.
		arrangeFactor := float64(minInt(l.Kernel*l.Kernel, 4))
		splitK := 1
		if b < 8 {
			arrangeFactor = float64(l.Kernel * l.Kernel)
			// splitK decomposes the reduction into partial sums, each
			// staging its own interior/exterior workspace pass.
			splitK = 2
		}
		arrange := lo.build(0, iDataArrangement, "", 0, inBytes, inBytes*arrangeFactor)
		for s := 0; s < splitK; s++ {
			arrange.pick(variant + s)
			emit(arrange)
		}
		emit(lo.launch(iConvolution, variant, convName(l, false), fwdFLOPs, inBytes+paramBytes, actBytes))
		if training {
			// dgrad (data gradient) + wgrad (weight gradient). The
			// small-batch splitK path stages workspace transforms for the
			// backward kernels too.
			if b < 8 {
				grad := lo.build(0, iDataArrangement, "", 0, actBytes, actBytes*arrangeFactor)
				input := lo.build(1, iDataArrangement, "", 0, inBytes, inBytes*arrangeFactor)
				for s := 0; s < splitK; s++ {
					grad.pick(variant + 1 + s)
					input.pick(variant + 2 + s)
					emit(grad)
					emit(input)
				}
			}
			emit(lo.launch(iConvolution, variant+1, "dgrad_engine", fwdFLOPs, actBytes+paramBytes, inBytes))
			emit(lo.launch(iConvolution, variant, "wgrad_alg0_engine", fwdFLOPs, actBytes+inBytes, paramBytes))
		}
	case workload.Linear:
		m := l.M
		if m == 0 {
			m = 1
		}
		variant := (l.In + l.Out) / 512
		inBytes := b * float64(m*l.In) * bytesPerElem
		emit(lo.launch(iGEMM, variant, gemmName(m, l.In, l.Out), fwdFLOPs, inBytes+paramBytes, actBytes))
		if training {
			emit(lo.launch(iGEMM, variant+1, "", fwdFLOPs, actBytes+paramBytes, inBytes))
			emit(lo.launch(iGEMM, variant+2, "", fwdFLOPs, actBytes+inBytes, paramBytes))
		}
	case workload.BatchNorm:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iBatchNorm, 0, "cudnn_bn_fw_tr_1C11_kernel_NCHW", fwdFLOPs, vol, vol))
		if training {
			emit(lo.launch(iBatchNorm, 1, "cudnn_bn_bw_1C11_kernel_new", fwdFLOPs, 2*vol, vol))
		}
	case workload.LayerNorm:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iBatchNorm, 4, "layer_norm_kernel", fwdFLOPs, vol, vol))
		if training {
			emit(lo.launch(iBatchNorm, 2, "", fwdFLOPs, 2*vol, vol))
		}
	case workload.ReLU:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iReLU, l.Elems/65536, "", fwdFLOPs, vol, vol))
		if training {
			emit(lo.launch(iReLU, 3, "relu_backward_kernel", fwdFLOPs, 2*vol, vol))
		}
	case workload.Elementwise:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iElementwise, l.Elems/65536, "", fwdFLOPs, 2*vol, vol))
		if training {
			emit(lo.launch(iElementwise, l.Elems/65536+1, "", fwdFLOPs, vol, vol))
		}
	case workload.Softmax:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iElementwise, 5, "softmax_warp_forward", fwdFLOPs, vol, vol))
		if training {
			emit(lo.launch(iElementwise, 5, "softmax_warp_backward", fwdFLOPs, 2*vol, vol))
		}
	case workload.Pool:
		inBytes := b * float64(l.InC*l.H*l.W) * bytesPerElem
		emit(lo.launch(iPooling, 0, "MaxPoolForward", fwdFLOPs, inBytes, actBytes))
		if training {
			emit(lo.launch(iPooling, 1, "MaxPoolBackward", fwdFLOPs, actBytes, inBytes))
		}
	case workload.Embedding:
		out := b * float64(l.Lookups*l.EmbDim) * bytesPerElem
		emit(lo.launch(iDataArrangement, 6, "indexSelectLargeIndex", 0, out, out))
		if training {
			emit(lo.launch(iDataArrangement, 5, "gatherTopK", 0, out, out))
		}
	case workload.LSTM, workload.GRU:
		gates := 4
		if l.Kind == workload.GRU {
			gates = 3
		}
		perStepFLOPs := b * 2 * float64(l.Input*gates*l.Hidden+l.Hidden*gates*l.Hidden)
		perStepEw := b * 8 * float64(gates*l.Hidden)
		gemmBytes := b*float64(l.Input+l.Hidden)*bytesPerElem + float64((l.Input+l.Hidden)*gates*l.Hidden)*bytesPerElem
		ewBytes := b * float64(gates*l.Hidden) * bytesPerElem
		passes := 1
		if training {
			passes = 3 // forward + dgrad + wgrad
		}
		// Every timestep of every pass does the same work; a pass only
		// renames its kernels.
		gemm := lo.build(0, iGEMM, "", perStepFLOPs, gemmBytes, b*float64(gates*l.Hidden)*bytesPerElem)
		ew := lo.build(1, iElementwise, "", perStepEw, 3*ewBytes, ewBytes)
		for p := 0; p < passes; p++ {
			gemm.pick(l.Hidden/128 + p)
			ew.pick(1 + p)
			for t := 0; t < l.SeqLen; t++ {
				emit(gemm)
				emit(ew)
			}
		}
	case workload.Attention:
		d, s := float64(l.Dim), float64(l.Seq)
		projFLOPs := b * 2 * s * d * d
		scoreFLOPs := b * 2 * s * s * d
		seqBytes := b * s * d * bytesPerElem
		scoreBytes := b * s * s * bytesPerElem
		passes := 1
		if training {
			passes = 3
		}
		// QKV projections (batched as one), transpose, QKᵀ, softmax, AV,
		// output proj: the same work on every pass, which only renames
		// the GEMMs.
		qkv := lo.build(0, iGEMM, "", 3*projFLOPs, seqBytes+3*float64(l.Dim*l.Dim)*bytesPerElem, 3*seqBytes)
		lo.build(1, iDataArrangement, "transpose_readWrite_alignment_kernel", 0, seqBytes, seqBytes)
		score := lo.build(2, iGEMM, "", scoreFLOPs, 2*seqBytes, scoreBytes)
		lo.build(3, iElementwise, "softmax_warp_forward", b*5*s*s, scoreBytes, scoreBytes)
		av := lo.build(4, iGEMM, "", scoreFLOPs, scoreBytes+seqBytes, seqBytes)
		proj := lo.build(5, iGEMM, "", projFLOPs, seqBytes+float64(l.Dim*l.Dim)*bytesPerElem, seqBytes)
		for p := 0; p < passes; p++ {
			qkv.pick(l.Dim/256 + p)
			score.pick(l.Seq/64 + p)
			av.pick(l.Seq/64 + 1 + p)
			proj.pick(l.Dim/256 + 1 + p)
			for i := range lo.sc.ks {
				emit(&lo.sc.ks[i])
			}
		}
	case workload.GridSample:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iDataArrangement, 7, "bilinear_sampler_2d_kernel", fwdFLOPs, 4*vol, vol))
		if training {
			emit(lo.launch(iDataArrangement, 7, "bilinear_sampler_2d_kernel", fwdFLOPs, vol, 4*vol))
		}
	case workload.Upsample:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iDataArrangement, 2, "", fwdFLOPs, vol/4, vol))
		if training {
			emit(lo.launch(iDataArrangement, 2, "", fwdFLOPs, vol, vol/4))
		}
	case workload.Memcpy:
		vol := b * float64(l.Elems) * bytesPerElem
		emit(lo.launch(iMemcpy, 1, "CUDA_memcpy_DtoD", 0, vol, vol))
	default:
		panic(fmt.Sprintf("gpusim: cannot lower layer kind %q", l.Kind))
	}
}

// convName selects the cuDNN-style forward convolution kernel by
// geometry: 1×1 convolutions dispatch to GEMM-like kernels, 3×3 to
// winograd, larger kernels to FFT.
func convName(l *workload.Layer, backward bool) string {
	switch {
	case l.Kernel == 1:
		return "implicit_convolve_sgemm"
	case l.Kernel == 3 && l.Stride == 1:
		return "maxwell_scudnn_winograd_128x128_ldg1_ldg4_tile148n_nt"
	case l.Kernel >= 5:
		return "fft2d_r2c_32x32"
	default:
		return "maxwell_scudnn_128x64_relu_interior_nn"
	}
}

// gemmName selects the cuBLAS-style GEMM kernel by problem size.
func gemmName(m, k, n int) string {
	switch {
	case m == 1:
		return "gemv2N_kernel"
	case m*n >= 128*128:
		return "maxwell_sgemm_128x128_nn"
	case m*n >= 128*64:
		return "maxwell_sgemm_128x64_nn"
	default:
		return "sgemm_32x32x32_NN_vec"
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
