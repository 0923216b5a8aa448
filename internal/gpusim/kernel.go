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

// Categories lists all eight in Table 7 order.
func Categories() []Category {
	return []Category{
		DataArrangement, Convolution, GEMM, BatchNormCat,
		ReluCat, Elementwise, Pooling, MemcpyCat,
	}
}

// Kernel is one simulated kernel launch.
type Kernel struct {
	Name     string
	Category Category
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
// behind Fig 6).
var kernelNames = map[Category][]string{
	DataArrangement: {
		"maxwell_scudnn_128x128_stridedB_splitK_interior_nn",
		"maxwell_scudnn_128x32_stridedB_splitK_interior_nn",
		"maxwell_scudnn_128x128_stridedB_interior_nn",
		"im2col_kernel",
		"transpose_readWrite_alignment_kernel",
		"gatherTopK",
		"indexSelectLargeIndex",
		"bilinear_sampler_2d_kernel",
	},
	Convolution: {
		"maxwell_scudnn_winograd_128x128_ldg1_ldg4_tile148n_nt",
		"wgrad_alg0_engine",
		"fft2d_r2c_32x32",
		"maxwell_scudnn_128x64_relu_interior_nn",
		"implicit_convolve_sgemm",
		"dgrad_engine",
	},
	GEMM: {
		"maxwell_sgemm_128x64_nt",
		"maxwell_sgemm_128x64_nn",
		"sgemm_32x32x32_NN_vec",
		"maxwell_sgemm_128x128_nn",
		"gemv2N_kernel",
		"gemmk1_kernel",
	},
	BatchNormCat: {
		"cudnn_bn_fw_tr_1C11_kernel_NCHW",
		"cudnn_bn_bw_1C11_kernel_new",
		"batch_norm_backward_kernel",
		"native_batch_norm_backward_kernel",
		"layer_norm_kernel",
	},
	ReluCat: {
		"maxwell_scudnn_128x128_relu_small_nn",
		"maxwell_scudnn_128x128_relu_interior_nn",
		"maxwell_scudnn_128x32_relu_interior_nn",
		"relu_backward_kernel",
	},
	Elementwise: {
		"elementwise_add_kernel",
		"elementwise_threshold_kernel",
		"elementwise_mul_kernel",
		"sigmoid_kernel",
		"tanh_kernel",
		"softmax_warp_forward",
		"adam_update_kernel",
		"sgd_momentum_update_kernel",
	},
	Pooling: {
		"MaxPoolForward",
		"MaxPoolBackward",
		"AvePoolForward",
		"AvePoolBackward",
	},
	MemcpyCat: {
		"CUDA_memcpy_HtoD",
		"CUDA_memcpy_DtoD",
		"CUDA_memcpy_DtoH",
	},
}

// pickName deterministically selects a function name for a category from
// a size-derived variant index.
func pickName(cat Category, variant int) string {
	names := kernelNames[cat]
	if variant < 0 {
		variant = -variant
	}
	return names[variant%len(names)]
}
