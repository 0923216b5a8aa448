package gpusim

// StallBreakdown attributes a kernel's issue stalls to the eight causes
// nvprof reports and the paper analyzes in Fig 7. Fractions sum to 1.
type StallBreakdown struct {
	InstFetch      float64 `json:"inst_fetch"`       // next instruction not yet fetched
	ExecDepend     float64 `json:"exe_depend"`       // input operand not yet available
	MemDepend      float64 `json:"mem_depend"`       // load/store resources unavailable
	Texture        float64 `json:"texture"`          // texture sub-system under-utilized
	Sync           float64 `json:"sync"`             // __syncthreads waits
	ConstMemDepend float64 `json:"const_mem_depend"` // immediate constant cache miss
	PipeBusy       float64 `json:"pipe_busy"`        // compute pipeline busy
	MemThrottle    float64 `json:"mem_throttle"`     // too many pending memory operations
}

// Vector returns the eight fractions in Fig 7 order.
func (s StallBreakdown) Vector() []float64 {
	return []float64{
		s.InstFetch, s.ExecDepend, s.MemDepend, s.Texture,
		s.Sync, s.ConstMemDepend, s.PipeBusy, s.MemThrottle,
	}
}

// StallNames returns the stall-class labels in Vector order.
func StallNames() []string {
	return []string{
		"inst_fetch", "exe_depend", "mem_depend", "texture",
		"sync", "const_mem_depend", "pipe_busy", "mem_throttle",
	}
}

// Sum returns the total of all fractions (≈1).
func (s StallBreakdown) Sum() float64 {
	t := 0.0
	for _, v := range s.Vector() {
		t += v
	}
	return t
}

// baseStalls is the calibrated stall mix of each kernel family at its
// typical operating point. Memory-dependency and execution-dependency
// stalls dominate every family — the paper's headline Fig 7 finding —
// and element-wise kernels sit near 70% memory dependency. It is indexed
// by category position.
var baseStalls = [numCategories]StallBreakdown{
	iConvolution:     {InstFetch: 0.06, ExecDepend: 0.30, MemDepend: 0.28, Texture: 0.02, Sync: 0.08, ConstMemDepend: 0.02, PipeBusy: 0.18, MemThrottle: 0.06},
	iGEMM:            {InstFetch: 0.05, ExecDepend: 0.35, MemDepend: 0.25, Texture: 0.02, Sync: 0.10, ConstMemDepend: 0.02, PipeBusy: 0.16, MemThrottle: 0.05},
	iBatchNorm:       {InstFetch: 0.06, ExecDepend: 0.22, MemDepend: 0.45, Texture: 0.01, Sync: 0.12, ConstMemDepend: 0.01, PipeBusy: 0.05, MemThrottle: 0.08},
	iReLU:            {InstFetch: 0.05, ExecDepend: 0.15, MemDepend: 0.60, Texture: 0.01, Sync: 0.04, ConstMemDepend: 0.01, PipeBusy: 0.04, MemThrottle: 0.10},
	iElementwise:     {InstFetch: 0.04, ExecDepend: 0.12, MemDepend: 0.70, Texture: 0.01, Sync: 0.03, ConstMemDepend: 0.01, PipeBusy: 0.03, MemThrottle: 0.06},
	iPooling:         {InstFetch: 0.06, ExecDepend: 0.18, MemDepend: 0.50, Texture: 0.03, Sync: 0.05, ConstMemDepend: 0.01, PipeBusy: 0.05, MemThrottle: 0.12},
	iDataArrangement: {InstFetch: 0.08, ExecDepend: 0.15, MemDepend: 0.55, Texture: 0.02, Sync: 0.05, ConstMemDepend: 0.02, PipeBusy: 0.04, MemThrottle: 0.09},
	iMemcpy:          {InstFetch: 0.05, ExecDepend: 0.10, MemDepend: 0.65, Texture: 0.01, Sync: 0.02, ConstMemDepend: 0.01, PipeBusy: 0.02, MemThrottle: 0.14},
}

// stallsFor returns the stall mix for a kernel of the category at
// position ci, shifted by how memory-bound this particular launch is:
// memory-bound launches trade execution-dependency and pipe-busy stalls
// for memory-dependency and memory-throttle stalls.
func stallsFor(ci int, memBound float64) StallBreakdown {
	b := baseStalls[ci]
	// Shift up to 10% of mass between the compute and memory stall pools.
	shift := 0.10 * (memBound - 0.5) * 2
	if shift > 0 {
		moved := shift * (b.ExecDepend + b.PipeBusy)
		b.ExecDepend *= 1 - shift
		b.PipeBusy *= 1 - shift
		b.MemDepend += moved * 0.8
		b.MemThrottle += moved * 0.2
	} else {
		s := -shift
		moved := s * (b.MemDepend + b.MemThrottle)
		b.MemDepend *= 1 - s
		b.MemThrottle *= 1 - s
		b.ExecDepend += moved * 0.7
		b.PipeBusy += moved * 0.3
	}
	return b
}
