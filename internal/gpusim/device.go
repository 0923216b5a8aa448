// Package gpusim simulates GPU execution of deep-learning training
// workloads at kernel granularity. It stands in for the paper's TITAN
// XP / TITAN RTX testbed plus nvprof: models are lowered to streams of
// CUDA-like kernel launches in the eight categories of Table 7, each
// kernel's duration comes from a roofline performance model over the
// device's compute and memory throughput, and an nvprof-like profiler
// aggregates the five micro-architectural metrics of Fig 3, the runtime
// breakdown of Fig 5, the hotspot census of Fig 6, and the stall
// breakdown of Fig 7. A lowering executes each distinct work (a
// category and its FLOPs and bytes) once: a loop that repeats the same
// work (a recurrent layer's timesteps) builds its kernels once and
// launches them again and again, and any other kernel whose work an
// earlier one executed copies that work's results. The profiler folds
// each launch into fixed per-category and per-function sums as it is
// lowered, in one pass, noting only the index of each launch's work for
// the time-weighted metrics; the kernels, the works and that index live
// in scratch borrowed for the call and kept for the next, so a profile
// costs the heap the same two objects whether the model launches twenty
// kernels or six thousand.
//
// The per-category efficiency and stall parameters are calibrated so the
// simulator reproduces the qualitative signatures nvprof reports for
// these kernel families (e.g. element-wise kernels ≈70% memory-dependency
// stalls); the per-benchmark differences then emerge from each model's
// actual kernel mix.
package gpusim

// Device describes a GPU system under test (the rows of Table 4).
type Device struct {
	Name            string
	SMs             int
	CudaCores       int
	ClockGHz        float64
	MemGB           float64
	MemType         string
	MemBandwidthGBs float64
	MaxWarpsPerSM   int
}

// PeakGFLOPs returns the single-precision peak throughput in GFLOP/s
// (2 FLOPs per core per clock, fused multiply-add).
func (d Device) PeakGFLOPs() float64 {
	return 2 * float64(d.CudaCores) * d.ClockGHz
}

// TitanXP returns the TITAN XP configuration the paper characterizes
// workloads on ("GPU Configurations v1" in Table 4).
func TitanXP() Device {
	return Device{
		Name:            "Nvidia Titan XP",
		SMs:             30,
		CudaCores:       3840,
		ClockGHz:        1.582,
		MemGB:           12,
		MemType:         "GDDR5X",
		MemBandwidthGBs: 547.6,
		MaxWarpsPerSM:   64,
	}
}

// TitanRTX returns the TITAN RTX configuration the paper runs training
// sessions on ("GPU Configurations v2" in Table 4).
func TitanRTX() Device {
	return Device{
		Name:            "Nvidia Titan RTX",
		SMs:             72,
		CudaCores:       4608,
		ClockGHz:        1.770,
		MemGB:           24,
		MemType:         "GDDR6",
		MemBandwidthGBs: 672,
		MaxWarpsPerSM:   32,
	}
}

// CPUConfig describes the host system of Table 4.
type CPUConfig struct {
	Model          string
	Cores          int
	ClockGHz       float64
	L1DKB, L1IKB   int
	L2KB           int
	L3MB           int
	MemoryGB       int
	MemoryType     string
	EthernetGbps   int
	HyperThreading bool
}

// XeonE52620v3 returns the host CPU configuration of Table 4.
func XeonE52620v3() CPUConfig {
	return CPUConfig{
		Model:          "Intel Xeon E5-2620 v3",
		Cores:          12,
		ClockGHz:       2.40,
		L1DKB:          32,
		L1IKB:          32,
		L2KB:           256,
		L3MB:           15,
		MemoryGB:       64,
		MemoryType:     "DDR3",
		EthernetGbps:   1,
		HyperThreading: false,
	}
}
