package gpusim

// Category is one of the eight kernel families of the paper's runtime
// breakdown (Fig 5 and Table 7).
type Category string

// The eight kernel categories.
const (
	DataArrangement Category = "data_arrangement"
	Convolution     Category = "convolution"
	GEMM            Category = "gemm"
	BatchNormCat    Category = "batchnorm"
	ReluCat         Category = "relu"
	Elementwise     Category = "elementwise"
	Pooling         Category = "pooling"
	MemcpyCat       Category = "memcpy"
)

// The position of each category in Categories() order. The
// per-category tables and a Profile's accumulators are arrays indexed
// by it.
const (
	iDataArrangement = iota
	iConvolution
	iGEMM
	iBatchNorm
	iReLU
	iElementwise
	iPooling
	iMemcpy
	numCategories
)

var categories = [numCategories]Category{
	iDataArrangement: DataArrangement, iConvolution: Convolution, iGEMM: GEMM, iBatchNorm: BatchNormCat,
	iReLU: ReluCat, iElementwise: Elementwise, iPooling: Pooling, iMemcpy: MemcpyCat,
}

// Categories lists all eight in Table 7 order.
func Categories() []Category {
	cs := categories
	return cs[:]
}

// Kernel is one simulated kernel launch.
type Kernel struct {
	Name     string
	Category Category
	// ci is Category's position in Categories(), set with it by
	// lowering, so no step after it looks the category up by name.
	ci int
	// fn is Name's position in funcNames, set with it by lowering.
	fn int
	// wi is the index of the kernel's work among those its lowering
	// executed, set with its results.
	wi int32
	// Work characterization, filled by lowering.
	FLOPs        float64
	BytesRead    float64
	BytesWritten float64
	// Results, filled by the performance model.
	Time    float64 // seconds
	Metrics Metrics
	Stalls  StallBreakdown
}

// Metrics are the five micro-architectural metrics of Fig 3, each in
// [0,1].
type Metrics struct {
	AchievedOccupancy float64 `json:"achieved_occupancy"`
	IPCEfficiency     float64 `json:"ipc_efficiency"`
	GldEfficiency     float64 `json:"gld_efficiency"`
	GstEfficiency     float64 `json:"gst_efficiency"`
	DramUtilization   float64 `json:"dram_utilization"`
}

// Vector returns the metrics in the paper's radar-axis order
// (1: achieved_occupancy, 2: ipc_efficiency, 3: gld_efficiency,
// 4: gst_efficiency, 5: dram_utilization).
func (m Metrics) Vector() []float64 {
	return []float64{
		m.AchievedOccupancy, m.IPCEfficiency,
		m.GldEfficiency, m.GstEfficiency, m.DramUtilization,
	}
}

// MetricNames returns the axis labels in Vector order.
func MetricNames() []string {
	return []string{
		"achieved_occupancy", "ipc_efficiency",
		"gld_efficiency", "gst_efficiency", "dram_utilization",
	}
}

// kernelNames holds the CUDA-style function names per category, taken
// from Table 7. Lowering picks among them by work-size so different
// model geometries surface different hotspot functions (the effect
// behind Fig 6). It is indexed by category position.
var kernelNames = [numCategories][]string{
	iDataArrangement: {
		"maxwell_scudnn_128x128_stridedB_splitK_interior_nn",
		"maxwell_scudnn_128x32_stridedB_splitK_interior_nn",
		"maxwell_scudnn_128x128_stridedB_interior_nn",
		"im2col_kernel",
		"transpose_readWrite_alignment_kernel",
		"gatherTopK",
		"indexSelectLargeIndex",
		"bilinear_sampler_2d_kernel",
	},
	iConvolution: {
		"maxwell_scudnn_winograd_128x128_ldg1_ldg4_tile148n_nt",
		"wgrad_alg0_engine",
		"fft2d_r2c_32x32",
		"maxwell_scudnn_128x64_relu_interior_nn",
		"implicit_convolve_sgemm",
		"dgrad_engine",
	},
	iGEMM: {
		"maxwell_sgemm_128x64_nt",
		"maxwell_sgemm_128x64_nn",
		"sgemm_32x32x32_NN_vec",
		"maxwell_sgemm_128x128_nn",
		"gemv2N_kernel",
		"gemmk1_kernel",
	},
	iBatchNorm: {
		"cudnn_bn_fw_tr_1C11_kernel_NCHW",
		"cudnn_bn_bw_1C11_kernel_new",
		"batch_norm_backward_kernel",
		"native_batch_norm_backward_kernel",
		"layer_norm_kernel",
	},
	iReLU: {
		"maxwell_scudnn_128x128_relu_small_nn",
		"maxwell_scudnn_128x128_relu_interior_nn",
		"maxwell_scudnn_128x32_relu_interior_nn",
		"relu_backward_kernel",
	},
	iElementwise: {
		"elementwise_add_kernel",
		"elementwise_threshold_kernel",
		"elementwise_mul_kernel",
		"sigmoid_kernel",
		"tanh_kernel",
		"softmax_warp_forward",
		"adam_update_kernel",
		"sgd_momentum_update_kernel",
	},
	iPooling: {
		"MaxPoolForward",
		"MaxPoolBackward",
		"AvePoolForward",
		"AvePoolBackward",
	},
	iMemcpy: {
		"CUDA_memcpy_HtoD",
		"CUDA_memcpy_DtoD",
		"CUDA_memcpy_DtoH",
	},
}

// softmaxBackward is the one function lowering launches by name that
// no row of kernelNames offers for picking.
const softmaxBackward = "softmax_warp_backward"

// maxFuncs is the number of distinct function names lowering can
// launch: every name of kernelNames plus softmaxBackward.
const maxFuncs = 45

// funcNames is every function name lowering launches, flat: the rows of
// kernelNames in category order, then softmaxBackward. funcBase holds
// where each category's row starts. A kernel carries its name's
// position here, and Run's census is indexed by it.
var funcNames, funcBase = flattenNames()

func flattenNames() (names [maxFuncs]string, base [numCategories]int) {
	n := 0
	for ci, row := range kernelNames {
		base[ci] = n
		n += copy(names[n:], row)
	}
	names[n] = softmaxBackward
	return names, base
}

// pickFunc deterministically selects a function for the category at
// position ci from a size-derived variant index, and returns its
// position in funcNames.
func pickFunc(ci, variant int) int {
	if variant < 0 {
		variant = -variant
	}
	return funcBase[ci] + variant%len(kernelNames[ci])
}

// funcOf returns the position in funcNames of a function lowering
// launches by name in the category at position ci. A name lowering
// cannot launch there is a bug, and funcOf panics on it.
func funcOf(ci int, name string) int {
	for i, n := range kernelNames[ci] {
		if n == name {
			return funcBase[ci] + i
		}
	}
	if ci == iElementwise && name == softmaxBackward {
		return maxFuncs - 1
	}
	panic("gpusim: no function " + name + " in category " + string(categories[ci]))
}
