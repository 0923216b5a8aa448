package gpusim

import "math"

// categoryProfile holds the calibrated execution characteristics of a
// kernel family: how close it gets to peak compute and bandwidth, its
// load/store coalescing quality, and its baseline occupancy and IPC.
// The numbers reflect the well-known behaviour of these cuDNN/cuBLAS/
// PyTorch kernel families on Pascal/Turing parts and are what make the
// simulator's per-benchmark signatures (Fig 3) realistic.
type categoryProfile struct {
	computeEff float64 // fraction of peak FLOPs achievable
	memEff     float64 // fraction of peak bandwidth achievable
	gldEff     float64 // global-load coalescing efficiency
	gstEff     float64 // global-store coalescing efficiency
	baseOcc    float64 // occupancy at saturating work size
	ipcBase    float64 // IPC efficiency when fully compute-bound
}

// profiles is indexed by category position.
var profiles = [numCategories]categoryProfile{
	iConvolution:     {computeEff: 0.55, memEff: 0.60, gldEff: 0.72, gstEff: 0.66, baseOcc: 0.56, ipcBase: 0.66},
	iGEMM:            {computeEff: 0.65, memEff: 0.70, gldEff: 0.90, gstEff: 0.86, baseOcc: 0.50, ipcBase: 0.74},
	iBatchNorm:       {computeEff: 0.15, memEff: 0.75, gldEff: 0.84, gstEff: 0.80, baseOcc: 0.62, ipcBase: 0.42},
	iReLU:            {computeEff: 0.10, memEff: 0.80, gldEff: 0.94, gstEff: 0.94, baseOcc: 0.66, ipcBase: 0.36},
	iElementwise:     {computeEff: 0.10, memEff: 0.80, gldEff: 0.90, gstEff: 0.90, baseOcc: 0.64, ipcBase: 0.32},
	iPooling:         {computeEff: 0.12, memEff: 0.70, gldEff: 0.80, gstEff: 0.86, baseOcc: 0.58, ipcBase: 0.38},
	iDataArrangement: {computeEff: 0.06, memEff: 0.50, gldEff: 0.32, gstEff: 0.38, baseOcc: 0.46, ipcBase: 0.26},
	iMemcpy:          {computeEff: 0.01, memEff: 0.85, gldEff: 1.00, gstEff: 1.00, baseOcc: 0.30, ipcBase: 0.12},
}

// launchOverhead is the fixed per-kernel launch latency (seconds).
const launchOverhead = 4e-6

// Execute fills in the kernel's duration, micro-architectural metrics,
// and stall breakdown for the given device using a roofline model:
// duration is the larger of compute time at the category's achievable
// FLOP rate and memory time at its achievable bandwidth, plus launch
// overhead. Of the kernel it reads only the category position, FLOPs,
// BytesRead and BytesWritten, so two kernels that agree on those four
// execute to the same results bit for bit, whatever their names; a
// lowering relies on that to execute each distinct work once. Category
// is only checked: a kernel whose position does not hold its Category
// is a bug, and Execute panics on it.
func Execute(k *Kernel, d Device) {
	ci := k.ci
	if ci < 0 || ci >= numCategories || categories[ci] != k.Category {
		panic("gpusim: kernel category " + string(k.Category) + " is not at its position")
	}
	p := profiles[ci]
	peakFLOPs := d.PeakGFLOPs() * 1e9
	peakBytes := d.MemBandwidthGBs * 1e9

	computeTime := k.FLOPs / (peakFLOPs * p.computeEff)
	bytes := k.BytesRead + k.BytesWritten
	memTime := bytes / (peakBytes * p.memEff)
	body := math.Max(computeTime, memTime)
	k.Time = body + launchOverhead

	// Boundedness: 1 = fully memory-bound, 0 = fully compute-bound.
	var memBound float64
	if body > 0 {
		memBound = memTime / (computeTime + memTime)
	} else {
		memBound = 1
	}

	// Occupancy rises with available parallelism (enough work elements to
	// fill the device's warps), saturating at the category base.
	elems := bytes / 4
	warpsNeeded := elems / 32
	warpsAvail := float64(d.SMs * d.MaxWarpsPerSM)
	fill := warpsNeeded / warpsAvail
	if fill > 1 {
		fill = 1
	}
	occ := p.baseOcc * (0.35 + 0.65*fill)

	// IPC efficiency degrades as the kernel becomes memory-bound; the
	// launch-overhead fraction drags tiny kernels further down.
	overheadFrac := launchOverhead / k.Time
	ipc := p.ipcBase * (1 - 0.55*memBound) * (1 - 0.6*overheadFrac)

	// DRAM utilization is how much of the achievable bandwidth the kernel
	// actually sustains over its lifetime.
	var dram float64
	if k.Time > 0 {
		dram = (bytes / peakBytes) / k.Time
	}
	if dram > 0.95 {
		dram = 0.95
	}

	k.Metrics = Metrics{
		AchievedOccupancy: clamp01(occ),
		IPCEfficiency:     clamp01(ipc),
		GldEfficiency:     clamp01(p.gldEff),
		GstEfficiency:     clamp01(p.gstEff),
		DramUtilization:   clamp01(dram),
	}
	k.Stalls = stallsFor(ci, memBound)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
