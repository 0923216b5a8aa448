package gpusim

import (
	"fmt"

	"aibench/internal/workload"
)

const bytesPerElem = 4 // FP32 training

// Lower translates a workload model into the stream of kernel launches
// one training iteration (forward + backward when training is set) of a
// batch executes, handing each launch to emit in stream order; it keeps
// no list of its own. The mapping follows how PyTorch+cuDNN dispatch
// these layer types: convolutions become implicit-GEMM/winograd kernels
// plus strided data-arrangement kernels, linear layers become sgemm
// calls, recurrent layers launch per-timestep GEMM and element-wise
// kernels, and every iteration begins with a host-to-device input copy
// and ends with element-wise optimizer updates.
func Lower(m workload.Model, batch int, training bool, emit func(Kernel)) {
	b := float64(batch)

	// Input transfer.
	inputElems := 0.0
	if len(m.Layers) > 0 {
		inputElems = float64(inputVolume(m.Layers[0]))
	}
	emit(Kernel{
		Name: pickName(MemcpyCat, 0), Category: MemcpyCat,
		BytesRead: b * inputElems * bytesPerElem, BytesWritten: b * inputElems * bytesPerElem,
	})

	for _, l := range m.Layers {
		lowerLayer(l, b, training, emit)
	}

	if training {
		// Optimizer update: read grad + read/write weights + momentum.
		params := float64(m.Params())
		emit(Kernel{
			Name: "sgd_momentum_update_kernel", Category: Elementwise,
			FLOPs:     4 * params,
			BytesRead: 3 * params * bytesPerElem, BytesWritten: 2 * params * bytesPerElem,
		})
	}
}

// inputVolume estimates the input elements of the first layer.
func inputVolume(l workload.Layer) int {
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

// lowerLayer emits the kernels for one layer.
func lowerLayer(l workload.Layer, b float64, training bool, emit func(Kernel)) {
	add := func(cat Category, variant int, nameOverride string, flops, read, written float64) {
		name := nameOverride
		if name == "" {
			name = pickName(cat, variant)
		}
		emit(Kernel{
			Name: name, Category: cat,
			FLOPs: flops, BytesRead: read, BytesWritten: written,
		})
	}
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
		for s := 0; s < splitK; s++ {
			add(DataArrangement, variant+s, "", 0, inBytes, inBytes*arrangeFactor)
		}
		add(Convolution, variant, convName(l, false), fwdFLOPs, inBytes+paramBytes, actBytes)
		if training {
			// dgrad (data gradient) + wgrad (weight gradient). The
			// small-batch splitK path stages workspace transforms for the
			// backward kernels too.
			if b < 8 {
				for s := 0; s < splitK; s++ {
					add(DataArrangement, variant+1+s, "", 0, actBytes, actBytes*arrangeFactor)
					add(DataArrangement, variant+2+s, "", 0, inBytes, inBytes*arrangeFactor)
				}
			}
			add(Convolution, variant+1, "dgrad_engine", fwdFLOPs, actBytes+paramBytes, inBytes)
			add(Convolution, variant, "wgrad_alg0_engine", fwdFLOPs, actBytes+inBytes, paramBytes)
		}
	case workload.Linear:
		m := l.M
		if m == 0 {
			m = 1
		}
		variant := (l.In + l.Out) / 512
		inBytes := b * float64(m*l.In) * bytesPerElem
		add(GEMM, variant, gemmName(m, l.In, l.Out), fwdFLOPs, inBytes+paramBytes, actBytes)
		if training {
			add(GEMM, variant+1, "", fwdFLOPs, actBytes+paramBytes, inBytes)
			add(GEMM, variant+2, "", fwdFLOPs, actBytes+inBytes, paramBytes)
		}
	case workload.BatchNorm:
		vol := b * float64(l.Elems) * bytesPerElem
		add(BatchNormCat, 0, "cudnn_bn_fw_tr_1C11_kernel_NCHW", fwdFLOPs, vol, vol)
		if training {
			add(BatchNormCat, 1, "cudnn_bn_bw_1C11_kernel_new", fwdFLOPs, 2*vol, vol)
		}
	case workload.LayerNorm:
		vol := b * float64(l.Elems) * bytesPerElem
		add(BatchNormCat, 4, "layer_norm_kernel", fwdFLOPs, vol, vol)
		if training {
			add(BatchNormCat, 2, "", fwdFLOPs, 2*vol, vol)
		}
	case workload.ReLU:
		vol := b * float64(l.Elems) * bytesPerElem
		add(ReluCat, l.Elems/65536, "", fwdFLOPs, vol, vol)
		if training {
			add(ReluCat, 3, "relu_backward_kernel", fwdFLOPs, 2*vol, vol)
		}
	case workload.Elementwise:
		vol := b * float64(l.Elems) * bytesPerElem
		add(Elementwise, l.Elems/65536, "", fwdFLOPs, 2*vol, vol)
		if training {
			add(Elementwise, l.Elems/65536+1, "", fwdFLOPs, vol, vol)
		}
	case workload.Softmax:
		vol := b * float64(l.Elems) * bytesPerElem
		add(Elementwise, 5, "softmax_warp_forward", fwdFLOPs, vol, vol)
		if training {
			add(Elementwise, 5, "softmax_warp_backward", fwdFLOPs, 2*vol, vol)
		}
	case workload.Pool:
		inBytes := b * float64(l.InC*l.H*l.W) * bytesPerElem
		add(Pooling, 0, "MaxPoolForward", fwdFLOPs, inBytes, actBytes)
		if training {
			add(Pooling, 1, "MaxPoolBackward", fwdFLOPs, actBytes, inBytes)
		}
	case workload.Embedding:
		out := b * float64(l.Lookups*l.EmbDim) * bytesPerElem
		add(DataArrangement, 6, "indexSelectLargeIndex", 0, out, out)
		if training {
			add(DataArrangement, 5, "gatherTopK", 0, out, out)
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
		for p := 0; p < passes; p++ {
			for t := 0; t < l.SeqLen; t++ {
				add(GEMM, l.Hidden/128+p, "", perStepFLOPs, gemmBytes, b*float64(gates*l.Hidden)*bytesPerElem)
				add(Elementwise, 1+p, "", perStepEw, 3*ewBytes, ewBytes)
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
		for p := 0; p < passes; p++ {
			// QKV projections (batched as one), transpose, QKᵀ, softmax, AV, output proj.
			add(GEMM, l.Dim/256+p, "", 3*projFLOPs, seqBytes+3*float64(l.Dim*l.Dim)*bytesPerElem, 3*seqBytes)
			add(DataArrangement, 4, "transpose_readWrite_alignment_kernel", 0, seqBytes, seqBytes)
			add(GEMM, l.Seq/64+p, "", scoreFLOPs, 2*seqBytes, scoreBytes)
			add(Elementwise, 5, "softmax_warp_forward", b*5*s*s, scoreBytes, scoreBytes)
			add(GEMM, l.Seq/64+1+p, "", scoreFLOPs, scoreBytes+seqBytes, seqBytes)
			add(GEMM, l.Dim/256+1+p, "", projFLOPs, seqBytes+float64(l.Dim*l.Dim)*bytesPerElem, seqBytes)
		}
	case workload.GridSample:
		vol := b * float64(l.Elems) * bytesPerElem
		add(DataArrangement, 7, "bilinear_sampler_2d_kernel", fwdFLOPs, 4*vol, vol)
		if training {
			add(DataArrangement, 7, "bilinear_sampler_2d_kernel", fwdFLOPs, vol, 4*vol)
		}
	case workload.Upsample:
		vol := b * float64(l.Elems) * bytesPerElem
		add(DataArrangement, 2, "", fwdFLOPs, vol/4, vol)
		if training {
			add(DataArrangement, 2, "", fwdFLOPs, vol, vol/4)
		}
	case workload.Memcpy:
		vol := b * float64(l.Elems) * bytesPerElem
		add(MemcpyCat, 1, "CUDA_memcpy_DtoD", 0, vol, vol)
	default:
		panic(fmt.Sprintf("gpusim: cannot lower layer kind %q", l.Kind))
	}
}

// convName selects the cuDNN-style forward convolution kernel by
// geometry: 1×1 convolutions dispatch to GEMM-like kernels, 3×3 to
// winograd, larger kernels to FFT.
func convName(l workload.Layer, backward bool) string {
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
